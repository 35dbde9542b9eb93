"""Tests for the phase-dependent reflection law and the batched phase search."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ideal_update_lmmse, ideal_update_ls, phase_cost
from risce import phase_model
from risce.channel import cascaded_correlation
from risce.experiments import PAPER_PROFILE, ExperimentConfig
from risce.lmmse_design import design_lmmse
from risce.ls_design import design_ls
from risce.phase_model import (
    _BAND,
    _BAND_BATCH,
    _NEWTON_CAP,
    _STEP_TOL,
    GRID_POINTS,
    ReflectionModel,
    amplitude_of_phase,
    ideal_model,
    minimize_pattern_entries,
    minimize_phase_objectives,
    project_to_feasible,
    reflection_coefficient,
    _newton_refine,
    _phase_cost,
    _phase_cost_slopes,
    _tables,
)
from risce.types import SystemConfig

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

    def test_scalar_input_gives_a_numpy_scalar(self, model):
        # The array code path: a 0-d input gives a numpy scalar (a float or
        # complex subclass) with the array's entry as its value.
        z = np.array([1.0 + 1j, 0.0, -2.0])
        for entry, want in zip(z, project_to_feasible(z, model)):
            for scalar in (complex(entry), entry, np.asarray(entry)):
                got = project_to_feasible(scalar, model)
                assert type(got) is np.complex128 and got == pytest.approx(want, rel=1e-15)
        thetas = np.angle(z)
        for theta, beta, phi in zip(thetas, amplitude_of_phase(thetas, model),
                                    reflection_coefficient(thetas, model)):
            got_beta = amplitude_of_phase(float(theta), model)
            got_phi = reflection_coefficient(float(theta), model)
            assert type(got_beta) is np.float64 and got_beta == pytest.approx(beta, rel=1e-15)
            assert type(got_phi) is np.complex128 and got_phi == pytest.approx(phi, rel=1e-15)


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
        tables = _tables(model)
        assert _tables(model) is tables
        assert tables.basis.shape == (3, GRID_POINTS)
        assert tables.slopes.shape == (GRID_POINTS, 3, 3)
        for array in (tables.grid, tables.basis, tables.slopes, tables.at_theta_d):
            with pytest.raises(ValueError):
                array[0] = 2.0
            with pytest.raises(ValueError):
                array.T[0] = 2.0

    @pytest.mark.parametrize("law", [(0.2, 2.0, 0.43 * np.pi), (0.0, 1.0, 1.0),
                                     (0.3, 0.6, 4.7), (0.0, 0.05, 0.2)])
    def test_basis_is_the_cost_at_the_unit_coefficients(self, law):
        # (q, c) = (1, 0), (0, 1), (0, j) pick the rows [beta^2; 2 beta cos;
        # -2 beta sin] out of the one cost formula, bit for bit, on the grid
        # and at theta_d, for alpha above and below 1 and beta_min = 0.
        m = ReflectionModel(*law)
        tables = _tables(m)
        assert tables.theta_d == (m.delta - np.pi / 2) % TWO_PI
        for row, (q, c) in enumerate([(1.0, 0.0), (0.0, 1.0), (0.0, 1.0j)]):
            assert np.array_equal(tables.basis[row], _phase_cost(q, c, tables.grid, m))
            assert np.array_equal(tables.at_theta_d[row], _phase_cost(q, c, tables.theta_d, m))
        beta = amplitude_of_phase(tables.grid, m)
        assert np.array_equal(tables.basis, np.stack([beta**2, 2.0 * beta * np.cos(tables.grid),
                                                      -2.0 * beta * np.sin(tables.grid)]))


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
    d1, d2, f = _phase_cost_slopes(q, c_re, c_im, theta, m)
    fd1 = (_phase_cost(q, c, theta + h, m) - _phase_cost(q, c, theta - h, m)) / (2 * h)
    fd2 = (_phase_cost_slopes(q, c_re, c_im, theta + h, m)[0]
           - _phase_cost_slopes(q, c_re, c_im, theta - h, m)[0]) / (2 * h)
    scale = q + 2.0 * abs(c) + 1.0
    assert f == pytest.approx(_phase_cost(q, c, theta, m), abs=1e-14 * scale)
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


def _amplitude_rounding(theta, model):
    """Change of beta(theta) when s = (sin(theta - delta) + 1) / 2 moves by a few ulps of 1.

    Next to the cusp sin(theta - delta) + 1 cancels, so s carries an absolute
    rounding error of about an ulp of 1, and beta = (1 - beta_min) s^alpha +
    beta_min moves by its slope in s times that.  Away from the cusp this is
    below 1e-15.
    """
    s = (np.sin(theta - model.delta) + 1.0) / 2.0
    ds = 4.0 * np.finfo(float).eps
    lo = np.maximum(s - ds, 0.0)
    return (1.0 - model.beta_min) * ((s + ds) ** model.alpha - lo**model.alpha)


def _check_pattern_step(q, c, model, grid, rtol, cusp_rounding=False):
    # Every entry is within rtol * (q + 2|c|) of the best point of grid plus
    # theta_d, is a fixed point of the projection, and the last row is ones.
    # A zero entry (beta_min = 0, at theta_d) is on the law but has no phase
    # to keep, so it is exempt from the fixed-point check.  With cusp_rounding
    # every entry must be the law point at the phase the search returns, and
    # the fixed-point check allows 1e-12 plus the rounding of beta there.
    v = minimize_pattern_entries(q, c, model)
    m, b = c.shape
    assert v.shape == (m + 1, b)
    assert np.all(v[-1] == 1.0)
    mask = v[:m] != 0.0
    nonzero = v[:m][mask]
    assert model.beta_min == 0.0 or nonzero.size == m * b
    atol = 1e-12
    if cusp_rounding:
        thetas = minimize_phase_objectives(np.full(m * b, q), c, model)[0].reshape(m, b)
        assert np.array_equal(v[:m], reflection_coefficient(thetas, model))
        atol = atol + _amplitude_rounding(thetas[mask], model)
    assert np.allclose(project_to_feasible(nonzero, model), nonzero, rtol=0.0, atol=atol)
    candidates = np.append(grid, (model.delta - np.pi / 2) % TWO_PI)
    found = q * np.abs(v[:m]) ** 2 + 2.0 * np.real(c * v[:m])
    for (i, j), cost in np.ndenumerate(found):
        oracle = np.min(phase_cost(q, c[i, j], candidates, model))
        assert cost <= oracle + rtol * (q + 2.0 * abs(c[i, j]))


DENSE_GRID = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
SEARCH_GRID = np.linspace(0.0, TWO_PI, GRID_POINTS, endpoint=False)


def _off_cusp(grid, model):
    """The points of grid at least one SEARCH_GRID step away from theta_d."""
    gap = (grid - (model.delta - np.pi / 2) + np.pi) % TWO_PI - np.pi
    return grid[np.abs(gap) >= TWO_PI / GRID_POINTS]


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


# An entry 1.8e-8 rad from the cusp, where s rounds to half an ulp of 1 and
# recomputing beta from np.angle of the entry moves it by 2.7e-3.
_CUSP_RNG = np.random.default_rng(1463)
_CUSP_C = _CUSP_RNG.uniform(0.1, 5.0) * (_CUSP_RNG.standard_normal((3, 4))
                                         + 1j * _CUSP_RNG.standard_normal((3, 4)))


# A narrow dip at the cusp: the point of SEARCH_GRID 1.6e-4 rad from it
# scores 0.11 below the step, whose own grid starts half a step (3.1e-3 rad)
# past the cusp.
_DIP_C = np.array([[0.25146044 + 2.60800009j, -0.26420973 + 1.89416193j, 1.2808453 - 1.40747047j],
                   [0.20980023 - 2.53084294j, -1.07133875 - 1.24654893j, 0.72319011 + 0.08265196j]])


@settings(max_examples=10, deadline=None)
@given(problem=pattern_problems(st.floats(0.0, 0.5, exclude_max=True)))
@example(problem=(5.0, _CUSP_C, ReflectionModel(beta_min=0.0, alpha=0.08203125, delta=6.0)))
def test_pattern_step_beats_its_candidates_below_half(problem):
    # For alpha < 1/2 a minimum next to the cusp can be narrower than the
    # grid spacing and no dense-oracle bound holds; the step still never
    # loses to its own grid, to theta_d, or to SEARCH_GRID outside one step
    # of theta_d.  Inside that step it can (the strict xfail below).
    model = problem[2]
    grid = np.concatenate([_tables(model).grid, _off_cusp(SEARCH_GRID, model)])
    _check_pattern_step(*problem, grid, rtol=1e-12, cusp_rounding=True)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known limit: for alpha < 1/2 the phase search misses a dip "
                          "at the cusp narrower than its grid step (CHANGES.md FOUND)")
def test_pattern_step_beats_search_grid_in_a_narrow_cusp_dip():
    model = ReflectionModel(beta_min=0.0, alpha=0.015625, delta=1.0)
    _check_pattern_step(3.0, _DIP_C, model, SEARCH_GRID, rtol=1e-12, cusp_rounding=True)


def _grid_best(q, c, model):
    """Index and value of each entry's first best grid point, per cusp side if alpha < 1 (test oracle)."""
    table = np.stack([q, c.real, c.imag], axis=1) @ _tables(model).basis
    sides = 2 if model.alpha < 1.0 else 1
    best = (np.argmin(table.reshape(q.size, sides, -1), axis=2)
            + np.arange(sides) * (GRID_POINTS // sides))
    return best, table[np.arange(q.size)[:, None], best]


@st.composite
def band_batches(draw, sizes=st.just(_BAND_BATCH)):
    """(q, c, model): a batch with z = -conj(c) / q on or near the law curve or far from it."""
    model = ReflectionModel(
        beta_min=draw(st.floats(0.0, 0.99)),
        alpha=draw(st.floats(1.0, 3.0)),
        delta=draw(st.floats(0.0, TWO_PI)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(sizes)
    near = rng.random(n) < draw(st.floats(0.0, 1.0))
    radius = np.where(near, 1.0 + draw(st.floats(0.0, 1e-2)) * rng.standard_normal(n),
                      np.exp(rng.uniform(-5.0, 5.0, n)))
    z = radius * reflection_coefficient(rng.uniform(0.0, TWO_PI, n), model)
    q = rng.uniform(0.01, 10.0, n)
    return q, -np.conj(q * z), model


def _assert_search_results(q, c, model, thetas, values, sure):
    # No value is above the global search's plus the ray bound's slack, each
    # is its theta's cost, and an uncertified entry is the search's own.
    want_thetas, want_values = phase_model._search(q, c, model)
    slack = 1e-12 * (q + 3.0 * np.abs(c))
    assert np.all(values <= want_values + slack)
    assert np.allclose(values, _phase_cost(q, c, thetas, model), rtol=0.0, atol=slack)
    assert np.array_equal(thetas[~sure], want_thetas[~sure])
    assert np.array_equal(values[~sure], want_values[~sure])


def _arg_z_step(q, c, model):
    """Which entries the arg z start certifies."""
    return phase_model._anchored_step(q, c, np.arctan2(c.imag, -c.real), model)[2]


@settings(max_examples=40, deadline=None)
@given(problem=band_batches(st.integers(_BAND_BATCH, 3 * _BAND_BATCH)), flat=st.booleans())
def test_arg_z_start_is_never_above_the_global_search(problem, flat):
    # One-sided: next to theta_d, with beta_min = 0 and |z| near 1e-5, the
    # local step can end a few 1e-11 below the search's grid miss (ROADMAP
    # item 6), never more than the slack above it.
    q, c, model = problem
    if flat:
        model = ReflectionModel(beta_min=0.0, alpha=model.alpha, delta=model.delta)
    _assert_search_results(q, c, model, *minimize_phase_objectives(q, c, model),
                           _arg_z_step(q, c, model))


def _on_curve_batch(model, n):
    """q = 2 and z on the law at n grid points at least _BAND steps from phase 0."""
    grid = _tables(model).grid
    z = reflection_coefficient(grid[np.linspace(_BAND, GRID_POINTS - _BAND - 1, n).astype(int)], model)
    q = np.full(n, 2.0)
    return q, -np.conj(q * z)


def _searched(q, c, model, monkeypatch):
    """minimize_phase_objectives(q, c, model) and the batch sizes it passed to _search."""
    batches = []
    search = phase_model._search
    monkeypatch.setattr(phase_model, "_search",
                        lambda q, c, m: batches.append(q.size) or search(q, c, m))
    got = minimize_phase_objectives(q, c, model)
    monkeypatch.undo()
    return got, batches


class TestBand:
    """The ray bound over the grid steps _BAND or more from arg z, from the arg z start."""

    MODEL = ReflectionModel(beta_min=0.2, alpha=2.0, delta=1.0)

    def pinned(self):
        # q = 0; q = c = 0; z at the origin; z nearer the origin than the
        # law; z far outside; a NaN q.  None certifies.
        q = np.array([0.0, 0.0, 1.0, 1.0, 1.0, np.nan])
        z = np.array([1.0 + 1.0j, 0.0, 0.0, 0.05 * np.exp(1j), 50.0 * np.exp(1j), np.exp(1j)])
        return q, np.where(q > 0.0, -np.conj(q * z), z)

    def assert_uncertified_search(self, q, c, hard, monkeypatch):
        # The hard entries, and only they, go to _search, whose result they keep bit for bit.
        (thetas, values), batches = _searched(q, c, self.MODEL, monkeypatch)
        sure = _arg_z_step(q, c, self.MODEL)
        assert np.array_equal(~sure, hard) and batches == [np.count_nonzero(hard)]
        want_thetas, want_values = phase_model._search(q[hard], c[hard], self.MODEL)
        assert np.array_equal(thetas[hard], want_thetas)
        assert np.array_equal(values[hard], want_values, equal_nan=True)

    def test_entries_on_the_curve_skip_the_grid(self, monkeypatch):
        q, c = _on_curve_batch(self.MODEL, _BAND_BATCH)
        (thetas, values), batches = _searched(q, c, self.MODEL, monkeypatch)
        assert _arg_z_step(q, c, self.MODEL).all() and not batches
        _assert_search_results(q, c, self.MODEL, thetas, values, np.ones(q.size, bool))

    def test_arg_z_next_to_phase_zero_certifies(self, monkeypatch):
        # Within one grid step of theta = 0, where a band of grid points
        # around arg z would wrap past the end of the grid.
        grid = _tables(self.MODEL).grid
        q, c = _on_curve_batch(self.MODEL, _BAND_BATCH)
        z = reflection_coefficient(np.array([grid[0], grid[1], grid[-1], 0.5 * grid[1]]), self.MODEL)
        q, c = np.append(q, [2.0] * 4), np.append(c, -np.conj(2.0 * z))
        (thetas, values), batches = _searched(q, c, self.MODEL, monkeypatch)
        assert _arg_z_step(q, c, self.MODEL).all() and not batches
        _assert_search_results(q, c, self.MODEL, thetas, values, np.ones(q.size, bool))

    def test_pinned_entries_score_the_whole_grid(self, monkeypatch):
        pq, pc = self.pinned()
        q, c = _on_curve_batch(self.MODEL, _BAND_BATCH)
        q, c = np.concatenate([pq, q]), np.concatenate([pc, c])
        with np.errstate(invalid="ignore"):   # NaN in the grid products
            self.assert_uncertified_search(q, c, np.arange(q.size) < pq.size, monkeypatch)

    @pytest.mark.parametrize("entry", range(6))
    def test_lone_wide_entry_matches_the_full_grid(self, entry, monkeypatch):
        pq, pc = self.pinned()
        q, c = _on_curve_batch(self.MODEL, _BAND_BATCH)
        q, c = np.append(q, pq[entry]), np.append(c, pc[entry])
        with np.errstate(invalid="ignore"):
            self.assert_uncertified_search(q, c, np.arange(q.size) == q.size - 1, monkeypatch)

    def test_alpha_below_one_and_small_batches_score_the_whole_grid(self, monkeypatch):
        # The gate: such a batch (every desk LMMSE step) is _search's, bit for
        # bit, and evaluates no slopes before the grid scan.
        cusp = ReflectionModel(beta_min=0.2, alpha=0.75, delta=1.0)
        for model, n in ((self.MODEL, _BAND_BATCH - 1), (cusp, 2 * _BAND_BATCH)):
            q, c = _on_curve_batch(model, n)
            events, search, slopes = [], phase_model._search, phase_model._phase_cost_slopes
            monkeypatch.setattr(phase_model, "_search",
                                lambda *args: events.append("grid") or search(*args))
            monkeypatch.setattr(phase_model, "_phase_cost_slopes",
                                lambda *args: events.append("slopes") or slopes(*args))
            got = minimize_phase_objectives(q, c, model)
            monkeypatch.undo()
            assert events[0] == "grid" and events.count("grid") == 1
            assert all(np.array_equal(g, w) for g, w in zip(got, phase_model._search(q, c, model)))

    def test_non_finite_entries_score_the_whole_grid(self, monkeypatch):
        q, c = _on_curve_batch(self.MODEL, _BAND_BATCH)
        q[:2], c[2:5] = [np.nan, np.inf], [np.nan, np.inf, complex(0.0, -np.inf)]
        with np.errstate(invalid="ignore"):   # inf - inf in the grid products
            self.assert_uncertified_search(q, c, np.arange(q.size) < 5, monkeypatch)


def test_non_finite_refined_value_never_wins(model, rng, monkeypatch):
    # np.argmin would pick a NaN; the strict comparisons keep the grid point.
    q = rng.uniform(0.1, 5.0, 200)
    c = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    low = _grid_best(q, c, model)[1][:, 0]
    batches = []

    def nan_refine(q, c, x, lo, hi, slopes, m):
        batches.append(x.size)
        return np.full_like(x, np.nan)

    monkeypatch.setattr(phase_model, "_newton_refine", nan_refine)
    thetas, values = phase_model._search(q, c, model)
    assert batches == [200]   # every entry's refined point came from the patch
    assert np.all(np.isfinite(thetas)) and np.all(values <= low)


@settings(max_examples=40, deadline=None)
@given(
    beta_min=st.floats(0.0, 0.99),
    alpha=st.floats(1.0, 3.0),
    delta=st.floats(0.0, TWO_PI),
    q=st.floats(0.0, 10.0),
    c_re=st.floats(-5.0, 5.0),
    c_im=st.floats(-5.0, 5.0),
    offset=st.floats(0.5, TWO_PI - 0.5),
)
def test_slope_table_matches_the_cost_slopes(beta_min, alpha, delta, q, c_re, c_im, offset):
    # At every grid point the table's f' and f'' equal _phase_cost_slopes up
    # to rounding; at one at least 0.5 rad from theta_d, f''' matches central
    # differences of f''.
    m = ReflectionModel(beta_min=beta_min, alpha=alpha, delta=delta)
    grid, table = _tables(m).grid, _tables(m).slopes
    d = table @ np.array([q, c_re, c_im])
    d1, d2, _ = _phase_cost_slopes(q, c_re, c_im, grid, m)
    scale = (q + 2.0 * abs(complex(c_re, c_im)) + 1.0) * (1.0 + alpha) ** 2
    assert np.max(np.abs(d[:, 0] - d1)) <= 1e-12 * scale
    assert np.max(np.abs(d[:, 1] - d2)) <= 1e-12 * scale
    i = int(np.rint((m.delta - np.pi / 2 + offset) % TWO_PI / TWO_PI * GRID_POINTS)) % GRID_POINTS
    h = 1e-5
    fd3 = (_phase_cost_slopes(q, c_re, c_im, grid[i] + h, m)[1]
           - _phase_cost_slopes(q, c_re, c_im, grid[i] - h, m)[1]) / (2 * h)
    assert d[i, 2] == pytest.approx(fd3, abs=1e-6 * scale * (1.0 + alpha))


def test_theta_d_is_scored_from_cached_scalars(model, rng):
    q = rng.uniform(0.0, 5.0, 50)
    c = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    theta_d = (model.delta - np.pi / 2) % TWO_PI
    value = np.stack([q, c.real, c.imag], axis=1) @ _tables(model).at_theta_d
    assert np.allclose(value, _phase_cost(q, c, theta_d, model),
                       rtol=0.0, atol=1e-15 * (q + 2 * np.abs(c)))


# A desk-size law (beta_min in [0, 0.5], alpha in [1, 3]) and a 72-entry batch
# with one quadratic coefficient, as one LS pattern step of a desk design.
DESK_MODEL = ReflectionModel(beta_min=0.2, alpha=2.1, delta=0.24)


def _desk_batch():
    rng = np.random.default_rng(4)
    q = np.full(72, rng.uniform(1.0, 8.0))
    return q, rng.standard_normal(72) + 1j * rng.standard_normal(72)


def _plain_newton(q, c, x, lo, hi, model):
    """Safeguarded Newton on f' from x in [lo, hi] until steps reach _STEP_TOL (test oracle)."""
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_CAP):
            d1, d2, _ = _phase_cost_slopes(q, c.real, c.imag, x, model)
            lo, hi = np.where(d1 <= 0.0, x, lo), np.where(d1 > 0.0, x, hi)
            step = x - d1 / d2
            x_new = np.where((d2 > 0.0) & (step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.abs(x_new - x) <= _STEP_TOL
            x = x_new
            if done.all():
                break
    return x


def test_desk_batch_needs_at_most_two_slope_evaluations(monkeypatch):
    # Plain Newton from the grid needs 4 evaluations on this batch, and a
    # Newton first step leaves most entries for a second one.
    q, c = _desk_batch()
    calls = []
    slopes = phase_model._phase_cost_slopes
    monkeypatch.setattr(phase_model, "_phase_cost_slopes",
                        lambda *args: calls.append(args[3].size) or slopes(*args))
    minimize_phase_objectives(q, c, DESK_MODEL)
    assert len(calls) <= 2 and calls[0] == q.size and sum(calls[1:]) <= q.size // 4


def test_refined_thetas_match_plain_newton():
    q, c = _desk_batch()
    best = _grid_best(q, c, DESK_MODEL)[0][:, 0]
    x = _tables(DESK_MODEL).grid[best]
    lo, hi = x - TWO_PI / GRID_POINTS, x + TWO_PI / GRID_POINTS
    slopes = _tables(DESK_MODEL).slopes[best] @ np.array([q, c.real, c.imag]).T[:, :, None]
    refined = _newton_refine(q, c, x, lo, hi, slopes[:, :, 0], DESK_MODEL)
    assert np.max(np.abs(refined - _plain_newton(q, c, x, lo, hi, DESK_MODEL))) <= 2 * _STEP_TOL


def test_refinement_below_one_is_as_good_as_plain_newton():
    # Below alpha = 1, f''' grows without bound toward the cusp: stopping on
    # the start's f''' would end up to 2e-12 (q + 2|c|) short next to it.
    m = ReflectionModel(beta_min=0.27, alpha=0.6, delta=4.7)
    theta_d, rng = (m.delta - np.pi / 2) % TWO_PI, np.random.default_rng(0)
    q = rng.uniform(0.5, 5.0, 72)
    z = (reflection_coefficient(theta_d + rng.normal(0.0, 3e-3, 72), m)
         * (1.0 + rng.normal(0.0, 0.3, 72)))
    c = -np.conj(q * z)   # minima next to the cusp
    x = _tables(m).grid[_grid_best(q, c, m)[0]]
    lo = np.maximum(x - TWO_PI / GRID_POINTS, theta_d)
    hi = np.minimum(x + TWO_PI / GRID_POINTS, theta_d + TWO_PI)
    plain = np.min([phase_cost(q, c, _plain_newton(q, c, x[:, j], lo[:, j], hi[:, j], m), m)
                    for j in range(2)], axis=0)
    _, values = minimize_phase_objectives(q, c, m)
    assert np.all(values <= plain + 1e-14 * (q + 2.0 * np.abs(c)))


def test_flat_minimum_on_theta_d_leaves_the_batch(monkeypatch):
    # beta_min = 0 and alpha >= 1: the cost is beta (q beta + 2|c| cos(theta -
    # theta_d)) >= 0 for q >= 2|c|, so its minimum 0 sits on theta_d, flat to
    # order 2 alpha, where Newton would run all _NEWTON_CAP steps.
    m = ReflectionModel(beta_min=0.0, alpha=2.0, delta=1.0)
    theta_d = (m.delta - np.pi / 2) % TWO_PI
    q = np.array([3.0, 3.0, 0.5])
    c = np.array([np.exp(-1j * theta_d), 1.0 + 1.0j, -1.0 + 0.5j])
    assert _grid_best(q, c, m)[1][0, 0] > 0.0
    batches = []
    slopes = phase_model._phase_cost_slopes
    monkeypatch.setattr(phase_model, "_phase_cost_slopes",
                        lambda *args: batches.append(args[1] + 1j * args[2]) or slopes(*args))
    thetas, values = minimize_phase_objectives(q, c, m)
    assert np.array_equal(batches[0], c[1:]) and not any(c[0] in b for b in batches)
    assert thetas[0] == theta_d and abs(values[0]) <= 1e-15
    assert np.all(values[1:] < 0.0)


@st.composite
def anchored_batches(draw):
    """(q, c, model, start): a batch over a random alpha >= 1 law and start phases.

    The anchor a test passes is the law's point at each start phase.

    z = -conj(c) / q lies on or near the law curve for some entries (where
    the ray bound can certify the anchored step) and anywhere for the rest.
    A start is the unanchored answer, that answer moved by up to 1e-6, 1e-2
    or 1 rad, or a uniform phase.  Half the laws have beta_min = 0.
    """
    q, c, model = draw(band_batches())
    if draw(st.booleans()):
        model = ReflectionModel(beta_min=0.0, alpha=model.alpha, delta=model.delta)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    answer = phase_model._search(q, c, model)[0]
    spread = rng.choice([0.0, 1e-6, 1e-2, 1.0, np.inf], q.size)
    start = np.where(np.isinf(spread), rng.uniform(-np.pi, np.pi, q.size),
                     answer + np.where(np.isinf(spread), 0.0, spread) * rng.standard_normal(q.size))
    return q, c, model, start


@settings(max_examples=60, deadline=None)
@given(problem=anchored_batches())
def test_anchored_search_is_never_above_the_global_one(problem):
    # The anchored value is at most the global search's plus the band's
    # slack; an entry the bound does not certify returns the search's result
    # bit for bit, and no entry ends above its start's cost.
    q, c, model, start = problem
    anchor = reflection_coefficient(start, model)
    thetas, values = minimize_phase_objectives(q, c, model, anchor)
    sure = phase_model._anchored_step(q, c, np.angle(anchor), model)[2]
    _assert_search_results(q, c, model, thetas, values, sure)
    assert np.all(values <= _phase_cost(q, c, start, model) + 1e-12 * (q + 3.0 * np.abs(c)))


def test_anchored_search_ignores_the_anchor_below_alpha_one_and_under_the_ideal_law(rng):
    q = rng.uniform(0.1, 5.0, 200)
    c = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    anchor = np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    for m in (ReflectionModel(beta_min=0.3, alpha=0.7, delta=2.0), ideal_model()):
        got, want = minimize_phase_objectives(q, c, m, anchor), minimize_phase_objectives(q, c, m)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    with pytest.raises(ValueError):
        minimize_phase_objectives(q, c, ReflectionModel(), anchor[:-1])


def test_zero_anchor_returns_the_unanchored_pattern():
    # beta_min = 0: an entry at theta_d is 0, whose np.angle, and so its
    # local step's start, is 0, not theta_d.
    m = ReflectionModel(beta_min=0.0, alpha=2.0, delta=1.0)
    theta_d = (m.delta - np.pi / 2) % TWO_PI
    q, c = 3.0, np.array([[np.exp(-1j * theta_d), -1.0 + 0.5j]])
    v = minimize_pattern_entries(q, c, m, np.array([[0.0, reflection_coefficient(2.0, m)]]))
    assert np.array_equal(v, minimize_pattern_entries(q, c, m))


def test_paper_ls_design_calls_certify_every_entry_at_their_answer(monkeypatch):
    # Paper default law and profile: started at its own global answer, every
    # entry of every pattern step of an LS design is certified, so no call
    # scores a grid.
    model, seen = ReflectionModel(), []
    search = phase_model.minimize_phase_objectives
    monkeypatch.setattr(phase_model, "minimize_phase_objectives",
                        lambda q, c, m, anchor=None: seen.append((q, c)) or search(q, c, m, anchor))
    for accelerate in (False, True):
        design_ls(SystemConfig(k=4, m=20, l=16), model, max_iter=20, accelerate=accelerate)
    monkeypatch.undo()
    answers = [phase_model._search(q, c.ravel(), model)[0] for q, c in seen]
    grid_calls = []
    grid = phase_model._search
    monkeypatch.setattr(phase_model, "_search", lambda *args: grid_calls.append(1) or grid(*args))
    for (q, c), answer in zip(seen, answers):
        search(q, c, model, reflection_coefficient(answer, model))
    assert len(seen) > 30 and not grid_calls


def test_paper_lmmse_design_calls_certify_at_the_global_answer(monkeypatch):
    # Paper default law and profile, SQUAREM at 10 dB: every pattern step is
    # unanchored and starts at arg z, and every entry it certifies is within
    # 1e-10 rad of the global search's phase.
    cfg, seen = ExperimentConfig(**PAPER_PROFILE), []
    r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
    search = phase_model.minimize_phase_objectives
    monkeypatch.setattr(phase_model, "minimize_phase_objectives",
                        lambda q, c, m, anchor=None: seen.append((q, c)) or search(q, c, m, anchor))
    design_lmmse(cfg.system(10.0), cfg.model, r_gamma, accelerate=True)
    monkeypatch.undo()
    assert len(seen) > 10
    for q, c in seen:
        c = c.ravel()
        thetas, _ = minimize_phase_objectives(q, c, cfg.model)
        sure = _arg_z_step(q, c, cfg.model)
        gap = (thetas - phase_model._search(q, c, cfg.model)[0] + np.pi) % TWO_PI - np.pi
        assert sure.any() and np.all(np.abs(gap[sure]) <= 1e-10)
