"""Tests for the phase-dependent reflection law and the batched phase search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ideal_update_lmmse, ideal_update_ls, phase_cost
from risce.phase_model import (
    GRID_POINTS,
    ReflectionModel,
    amplitude_of_phase,
    ideal_model,
    minimize_pattern_entries,
    minimize_phase_objectives,
    project_to_feasible,
    reflection_coefficient,
    _phase_cost,
    _phase_cost_slopes,
    _search_grid,
)

TWO_PI = 2.0 * np.pi


class TestAmplitudeLaw:
    def test_peak_at_delta_plus_half_pi(self):
        for beta_min, alpha in [(0.0, 1.0), (0.2, 2.0), (0.7, 0.5)]:
            m = ReflectionModel(beta_min=beta_min, alpha=alpha, delta=0.3)
            assert amplitude_of_phase(m.delta + np.pi / 2, m) == pytest.approx(1.0)

    def test_minimum_is_beta_min(self, model):
        assert amplitude_of_phase(model.delta - np.pi / 2, model) == pytest.approx(0.2)

    def test_value_at_delta(self):
        # sin(0) = 0 so the curve passes through (1 - b)*0.5^alpha + b.
        m = ReflectionModel(beta_min=0.2, alpha=1.6)
        expected = 0.8 * 0.5**1.6 + 0.2
        assert amplitude_of_phase(m.delta, m) == pytest.approx(expected, rel=1e-12)

    def test_bounds_and_periodicity(self, rng):
        for _ in range(20):
            m = ReflectionModel(
                beta_min=rng.uniform(0.0, 0.95),
                alpha=rng.uniform(0.1, 4.0),
                delta=rng.uniform(0.0, TWO_PI),
            )
            th = rng.uniform(-10.0, 10.0, 256)
            amps = amplitude_of_phase(th, m)
            assert np.all(amps >= m.beta_min - 1e-12)
            assert np.all(amps <= 1.0 + 1e-12)
            # periodic up to the rounding of theta + 2*pi itself
            assert np.max(np.abs(amps - amplitude_of_phase(th + TWO_PI, m))) < 1e-12

    def test_ideal_model_is_flat(self):
        m = ideal_model()
        th = np.linspace(0, TWO_PI, 17)
        assert np.allclose(amplitude_of_phase(th, m), 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReflectionModel(beta_min=-0.1)
        with pytest.raises(ValueError):
            ReflectionModel(beta_min=1.2)
        with pytest.raises(ValueError):
            ReflectionModel(alpha=-1.0)

    @pytest.mark.parametrize("params", [
        dict(beta_min=np.nan), dict(alpha=np.nan), dict(alpha=np.inf),
        dict(delta=np.nan), dict(delta=-np.inf),
    ])
    def test_non_finite_parameters_rejected(self, params):
        with pytest.raises(ValueError):
            ReflectionModel(**params)


class TestReflectionCoefficient:
    def test_unit_modulus_at_peak(self, model):
        th = model.delta + np.pi / 2
        phi = reflection_coefficient(th, model)
        assert abs(phi) == pytest.approx(1.0)
        assert np.angle(phi) == pytest.approx(((th + np.pi) % TWO_PI) - np.pi)

    def test_minimum_amplitude_point(self, model):
        th = model.delta - np.pi / 2
        assert reflection_coefficient(th, model) == pytest.approx(0.2 * np.exp(1j * th))

    def test_zero_phase(self):
        m = ReflectionModel(beta_min=0.2, alpha=2.0, delta=0.43 * np.pi)
        expected = amplitude_of_phase(0.0, m) * (1.0 + 0.0j)
        assert reflection_coefficient(0.0, m) == pytest.approx(expected)

    def test_modulus_within_law_bounds(self, model, rng):
        th = rng.uniform(0, TWO_PI, 100)
        mod = np.abs(reflection_coefficient(th, model))
        assert np.all((mod >= model.beta_min - 1e-12) & (mod <= 1.0 + 1e-12))


class TestProjection:
    def test_feasible_point_unchanged(self, model):
        z = reflection_coefficient(model.delta + np.pi / 2, model)
        assert project_to_feasible(z, model) == pytest.approx(z)

    def test_amplitude_replaced(self):
        m = ReflectionModel(beta_min=0.2, alpha=2.0, delta=0.43 * np.pi)
        z = 5.0 * np.exp(1j * np.pi / 4)
        expected = amplitude_of_phase(np.pi / 4, m) * np.exp(1j * np.pi / 4)
        assert project_to_feasible(z, m) == pytest.approx(expected)

    def test_zero_maps_to_zero_phase(self, model):
        expected = amplitude_of_phase(0.0, model) * (1.0 + 0.0j)
        assert project_to_feasible(0.0 + 0.0j, model) == pytest.approx(expected)

    def test_idempotent(self, rng):
        for _ in range(10):
            m = ReflectionModel(
                beta_min=rng.uniform(0.05, 0.95),
                alpha=rng.uniform(0.1, 4.0),
                delta=rng.uniform(0.0, TWO_PI),
            )
            z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            once = project_to_feasible(z, m)
            assert np.allclose(project_to_feasible(once, m), once, atol=1e-13)

    def test_array_input(self, model):
        z = np.array([[1.0 + 1j, 0.0], [-2.0, 3j]])
        out = project_to_feasible(z, model)
        assert out.shape == z.shape
        assert out[0, 1] == pytest.approx(project_to_feasible(0j, model))


class TestPhaseSearch:
    def test_pure_linear_ideal(self):
        # For beta = 1 the objective is 2*cos(theta): minimum -2 at pi.
        (theta,), (value,) = minimize_phase_objectives([0.0], [1.0 + 0j], ideal_model())
        assert theta == pytest.approx(np.pi, abs=1e-6)
        assert value == pytest.approx(-2.0, abs=1e-10)

    def test_pure_quadratic(self, model):
        # Minimizing beta(theta)^2 lands at the amplitude minimum.
        (theta,), (value,) = minimize_phase_objectives([1.0], [0j], model)
        assert value == pytest.approx(model.beta_min**2, abs=1e-12)
        # The bowl is quartically flat there, so the phase tolerance is loose.
        target = (model.delta - np.pi / 2) % TWO_PI
        assert abs(theta - target) < 2e-2

    def test_beats_every_grid_point(self, model, rng):
        qs, cs = [], []
        for _ in range(10):
            qs.append(rng.uniform(0.0, 5.0))
            cs.append(rng.standard_normal() + 1j * rng.standard_normal())
        thetas, values = minimize_phase_objectives(qs, cs, model)
        grid = np.linspace(0.0, TWO_PI, GRID_POINTS, endpoint=False)
        for q, c, theta, value in zip(qs, cs, thetas, values):
            assert value <= np.min(phase_cost(q, c, grid, model)) + 1e-14
            assert 0.0 <= theta < TWO_PI

    def test_matches_dense_grid_oracle(self, model, rng):
        # 2e5-point exhaustive oracle; the acceptance suite runs the 1e6 one.
        dense = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
        qs, cs = [], []
        for _ in range(30):
            qs.append(rng.uniform(0.0, 10.0))
            cs.append(3.0 * (rng.standard_normal() + 1j * rng.standard_normal()))
        _, values = minimize_phase_objectives(qs, cs, model)
        for q, c, value in zip(qs, cs, values):
            oracle = float(np.min(phase_cost(q, c, dense, model)))
            scale = max(abs(oracle), 1e-9)
            assert value <= oracle + 1e-9 * scale

    def test_expansion_identity(self, rng):
        # q*beta^2 + 2 Re{c beta e^{j th}} written out through
        # xi = (1 - beta_min) / 2^alpha must agree to 1e-12 relative.
        for _ in range(25):
            m = ReflectionModel(
                beta_min=rng.uniform(0.0, 0.9),
                alpha=rng.uniform(0.2, 3.0),
                delta=rng.uniform(0.0, TWO_PI),
            )
            q = rng.uniform(0.0, 5.0)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            theta = rng.uniform(0.0, TWO_PI, 64)
            xi = (1.0 - m.beta_min) * 0.5**m.alpha
            s = np.sin(theta - m.delta) + 1.0
            expanded = q * (
                xi**2 * s ** (2 * m.alpha)
                + m.beta_min**2
                + 2.0 * xi * m.beta_min * s**m.alpha
            ) + 2.0 * np.abs(c) * (xi * s**m.alpha + m.beta_min) * np.cos(
                np.angle(c) + theta
            )
            direct = _phase_cost(q, c, theta, m)
            scale = np.maximum(np.abs(expanded), 1e-12)
            assert np.max(np.abs(direct - expanded) / scale) < 1e-12

    def test_cusp_minimum_found(self):
        # For alpha < 1/2 the amplitude minimum theta_d = delta - pi/2 is a
        # cusp whose dip is narrower than the grid spacing.  With beta_min = 0
        # the cost is 0 there, while the smooth minimum elsewhere is 1.15.
        m = ReflectionModel(beta_min=0.0, alpha=0.05, delta=0.43 * np.pi)
        (theta,), (value,) = minimize_phase_objectives([4.0], [1.0 + 1j], m)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert theta == pytest.approx((m.delta - np.pi / 2) % TWO_PI, abs=1e-12)

    def test_two_minima_below_one_found(self):
        # For 1/2 <= alpha < 1 with beta_min = 0 and a small |c| / q the cost
        # has a minimum on each side of theta_d, closer in value than the
        # grid error; refining only the best grid point found -2.23e-6.
        m = ReflectionModel(beta_min=0.0, alpha=0.5, delta=1.71875)
        q, c = 3.0, 0.0103 + 0.0879j
        _, (value,) = minimize_phase_objectives([q], [c], m)
        oracle = float(np.min(phase_cost(q, c, DENSE_GRID, m)))
        assert oracle == pytest.approx(-2.900145e-6, rel=1e-6)
        assert value == pytest.approx(-2.900162e-6, rel=1e-6)
        assert value <= oracle

    def test_ideal_step_matches_closed_forms(self, rng):
        # The ideal law's exact step equals the LS and LMMSE closed forms;
        # a zero coefficient, where every phase is optimal, gives theta = 0.
        q = 1.7
        c = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        c[1, 2] = 0.0
        v = minimize_pattern_entries(q, c, ideal_model())
        a0 = np.zeros((4, 4), dtype=complex)     # (B, M+1), last column unused
        a0[:, :3] = c.T
        assert np.allclose(v, ideal_update_ls(a0).v, rtol=0.0, atol=1e-15)
        c_map = np.zeros((4, 4), dtype=complex)  # (M+1, B), last row unused
        c_map[:3] = -c
        assert np.allclose(v, ideal_update_lmmse(c_map).v, rtol=0.0, atol=1e-15)
        assert v[1, 2] == 1.0
        thetas, values = minimize_phase_objectives(np.full(c.size, q), c, ideal_model())
        assert np.allclose(values, q - 2.0 * np.abs(c.ravel()), rtol=0.0, atol=1e-15)
        assert np.all((thetas >= 0.0) & (thetas < TWO_PI))

    def test_cached_basis_is_read_only(self, model):
        grid, basis = _search_grid(model)
        assert _search_grid(model)[1] is basis
        assert basis.shape == (3, GRID_POINTS)
        for array in (grid, basis):
            with pytest.raises(ValueError):
                array[0] = 2.0
            with pytest.raises(ValueError):
                array.T[0] = 2.0


@settings(max_examples=50, deadline=None)
@given(
    beta_min=st.floats(0.0, 0.99),
    alpha=st.floats(0.5, 3.0),
    delta=st.floats(0.0, TWO_PI),
    q=st.floats(0.0, 10.0),
    c_re=st.floats(-5.0, 5.0),
    c_im=st.floats(-5.0, 5.0),
    offset=st.floats(0.5, TWO_PI - 0.5),
)
def test_phase_cost_slopes_match_central_differences(
        beta_min, alpha, delta, q, c_re, c_im, offset):
    # f' against central differences of f, and f'' against central
    # differences of f', at least 0.5 rad away from the amplitude minimum.
    m = ReflectionModel(beta_min=beta_min, alpha=alpha, delta=delta)
    c = complex(c_re, c_im)
    theta = (m.delta - np.pi / 2 + offset) % TWO_PI
    h = 1e-6
    d1, d2 = _phase_cost_slopes(q, c, theta, m)
    fd1 = (_phase_cost(q, c, theta + h, m) - _phase_cost(q, c, theta - h, m)) / (2 * h)
    fd2 = (_phase_cost_slopes(q, c, theta + h, m)[0]
           - _phase_cost_slopes(q, c, theta - h, m)[0]) / (2 * h)
    scale = q + 2.0 * abs(c) + 1.0
    assert d1 == pytest.approx(fd1, abs=1e-6 * scale)
    assert d2 == pytest.approx(fd2, abs=1e-6 * scale)


@st.composite
def pattern_problems(draw, alphas):
    """(q, c, model): an (M, B) pattern-step problem over a random law."""
    m = draw(st.integers(1, 3))
    b = m + draw(st.integers(1, 2))
    model = ReflectionModel(
        # A subnormal beta_min makes entries whose phase np.angle cannot
        # recover, so the projection check would test rounding, not the step.
        beta_min=draw(st.one_of(st.just(0.0), st.just(1.0),
                                st.floats(0.0, 1.0, allow_subnormal=False))),
        alpha=draw(alphas),
        delta=draw(st.floats(0.0, TWO_PI)),
    )
    q = draw(st.floats(0.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.floats(0.1, 5.0)) * (
        rng.standard_normal((m, b)) + 1j * rng.standard_normal((m, b)))
    return q, c, model


def _check_pattern_step(q, c, model, grid, rtol):
    # Every entry is within rtol * (q + 2|c|) of the best point of grid plus
    # theta_d, is a fixed point of the projection, and the last row is ones.
    # A zero entry (beta_min = 0, at theta_d) is on the law but has no phase
    # to keep, so it is exempt from the fixed-point check.
    v = minimize_pattern_entries(q, c, model)
    m, b = c.shape
    assert v.shape == (m + 1, b)
    assert np.all(v[-1] == 1.0)
    nonzero = v[:m][v[:m] != 0.0]
    assert model.beta_min == 0.0 or nonzero.size == m * b
    assert np.allclose(project_to_feasible(nonzero, model), nonzero, rtol=0.0, atol=1e-12)
    candidates = np.append(grid, (model.delta - np.pi / 2) % TWO_PI)
    found = q * np.abs(v[:m]) ** 2 + 2.0 * np.real(c * v[:m])
    for (i, j), cost in np.ndenumerate(found):
        oracle = np.min(phase_cost(q, c[i, j], candidates, model))
        assert cost <= oracle + rtol * (q + 2.0 * abs(c[i, j]))


DENSE_GRID = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
SEARCH_GRID = np.linspace(0.0, TWO_PI, GRID_POINTS, endpoint=False)


@settings(max_examples=20, deadline=None)
@given(problem=pattern_problems(st.floats(1.0, 3.0)))
def test_pattern_step_matches_dense_oracle(problem):
    _check_pattern_step(*problem, DENSE_GRID, rtol=1e-9)


@settings(max_examples=10, deadline=None)
@given(problem=pattern_problems(st.floats(0.5, 1.0, exclude_max=True)))
def test_pattern_step_near_dense_oracle_below_one(problem):
    # For 1/2 <= alpha < 1 the law is not twice differentiable at theta_d.
    # With a small |c| the cost then has two near-equal minima on either
    # side of theta_d; the search refines the best point of each side.
    _check_pattern_step(*problem, DENSE_GRID, rtol=1e-9)


@settings(max_examples=10, deadline=None)
@given(problem=pattern_problems(st.floats(0.0, 0.5, exclude_max=True)))
def test_pattern_step_beats_its_candidates_below_half(problem):
    # For alpha < 1/2 a minimum next to the cusp can be narrower than the
    # grid spacing and no dense-oracle bound holds; the step still never
    # loses to its own grid or to theta_d.
    _check_pattern_step(*problem, SEARCH_GRID, rtol=1e-12)
