"""Tests for the DFT training and the MM reflection-pattern design (LS)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    ideal_update_ls,
    ls_majorizer,
    ls_objective,
    phase_cost,
    random_feasible_pattern,
)
from risce.baselines import dft_training, naive_pattern
from risce.errors import DimensionMismatch, InvalidDims, SingularGram
from risce.ls_design import (
    design_ls,
    ls_score,
    ls_surrogate,
    mm_update_ls,
)
from risce.phase_model import (
    ReflectionModel,
    ideal_model,
    project_to_feasible,
    reflection_coefficient,
)
from risce.system import ReflectionPattern, mse_ls
from risce.types import SystemConfig

TWO_PI = 2.0 * np.pi


class TestDftTraining:
    def test_two_point_dft(self):
        x = dft_training(2, 2, np.ones(2))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(x.x, expected)
        assert np.allclose(x.x @ x.x.conj().T, np.eye(2), atol=1e-12)

    def test_unequal_budgets(self):
        x = dft_training(2, 4, np.array([4.0, 1.0]))
        norms = np.sum(np.abs(x.x) ** 2, axis=1)
        assert np.allclose(norms, [4.0, 1.0])
        assert abs(x.x[0] @ x.x[1].conj()) < 1e-12

    def test_gram_is_power_diagonal(self, rng):
        for _ in range(5):
            k = int(rng.integers(1, 5))
            tau = k + int(rng.integers(0, 4))
            p = rng.uniform(0.5, 3.0, k)
            x = dft_training(k, tau, p)
            assert np.linalg.norm(x.x @ x.x.conj().T - np.diag(p)) < 1e-12

    def test_tau_too_small(self):
        with pytest.raises(InvalidDims):
            dft_training(3, 2, np.ones(3))


class TestLsSurrogate:
    def test_orthogonal_init_lambda(self):
        # Square DFT pattern: V V^H = (M+1) I so Tr inverse = 1, lambda1 = 3.
        v = naive_pattern(3, 4, ideal_model())
        lambda1, _ = ls_surrogate(v.v, ls_score(v.v)[1])
        assert lambda1 == pytest.approx(3.0, rel=1e-10)

    def test_tangency(self, model, rng):
        for _ in range(10):
            v = random_feasible_pattern(rng, 4, 6, model)
            sur = ls_majorizer(v.v)
            assert sur(v.v) == pytest.approx(ls_objective(v.v), rel=1e-8)

    def test_majorization_on_random_points(self, model, rng):
        v0 = random_feasible_pattern(rng, 4, 6, model)
        sur = ls_majorizer(v0.v)
        for _ in range(100):
            v = random_feasible_pattern(rng, 4, 6, model)
            assert sur(v.v) >= ls_objective(v.v) - 1e-8

    @pytest.mark.parametrize("gap", [1e-7, 0.0])
    def test_ill_conditioned_gram_raises(self, gap):
        # V V^H has condition number about 8e14 (gap 1e-7) or is singular
        v = ReflectionPattern(v=np.array([[1.0, 1.0 + gap], [1.0, 1.0]]))
        assert gap == 0.0 or np.linalg.cond(v.v @ v.v.conj().T) > 1e12
        with pytest.raises(SingularGram):
            ls_surrogate(v.v, ls_score(v.v)[1])

    def test_gradient_matches_objective_at_anchor(self, model, rng):
        # finite-difference gradients of f and f(.; V0) agree at V0
        v0 = random_feasible_pattern(rng, 3, 4, model)
        sur = ls_majorizer(v0.v)
        h = 1e-6

        def fd_grad(fun):
            grad = np.zeros(2 * v0.v.size)
            for idx in range(v0.v.size):
                for part, offset in ((1.0, 0), (1.0j, v0.v.size)):
                    delta = np.zeros_like(v0.v)
                    delta.flat[idx] = part * h
                    grad[idx + offset] = (fun(v0.v + delta) - fun(v0.v - delta)) / (2 * h)
            return grad

        g_obj = fd_grad(lambda v: float(np.real(np.trace(np.linalg.inv(v @ v.conj().T)))))
        g_sur = fd_grad(sur)
        assert np.linalg.norm(g_obj - g_sur) <= 1e-4 * np.linalg.norm(g_obj)


class TestMmUpdate:
    def test_ideal_model_reduces_to_phase_alignment(self, rng):
        v0 = random_feasible_pattern(rng, 3, 5, ideal_model())
        _, a0 = ls_surrogate(v0.v, ls_score(v0.v)[1])
        updated = mm_update_ls(v0.v, ideal_model(), ls_score(v0.v)[1])
        closed = ideal_update_ls(a0)
        assert np.allclose(updated, closed.v, atol=1e-12)

    def test_entries_are_projection_fixed_points(self, model, rng):
        v0 = random_feasible_pattern(rng, 2, 3, model)
        out = mm_update_ls(v0.v, model, ls_score(v0.v)[1])
        assert np.allclose(project_to_feasible(out[:-1], model), out[:-1], atol=1e-12)
        assert np.allclose(out[-1], 1.0)

    def test_matches_exhaustive_grid(self, model, rng):
        v0 = random_feasible_pattern(rng, 2, 3, model)
        lambda1, a0 = ls_surrogate(v0.v, ls_score(v0.v)[1])
        out = mm_update_ls(v0.v, model, ls_score(v0.v)[1])
        grid = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
        for m in range(2):
            for n in range(3):
                q, c = lambda1, a0[n, m]
                vals = phase_cost(q, c, grid, model)
                achieved = phase_cost(q, c, float(np.angle(out[m, n]) % TWO_PI), model)
                assert achieved <= np.min(vals) + 1e-9 * max(abs(np.min(vals)), 1e-9)

    def test_objective_never_increases(self, model, rng):
        v = random_feasible_pattern(rng, 4, 5, model)
        before = ls_objective(v.v)
        after = ls_objective(mm_update_ls(v.v, model, ls_score(v.v)[1]))
        assert after <= before + 1e-12


class TestDesignLs:
    CFG = SystemConfig(k=2, m=4, l=4, b=5, tau=2)

    def test_monotone_descent_from_naive(self, model):
        pattern, trace = design_ls(self.CFG, model, eps=1e-4, accelerate=False)
        objs = np.asarray(trace.objectives)
        assert np.all(np.diff(objs) <= 1e-12)
        assert objs[-1] <= objs[0]
        assert trace.converged

    def test_ideal_model_reaches_orthogonal_optimum(self):
        pattern, trace = design_ls(self.CFG, ideal_model(), accelerate=False)
        # global optimum over unit-modulus patterns is Tr = (M+1)/B
        assert trace.objectives[-1] == pytest.approx((4 + 1) / 5, rel=0.01)

    def test_acceleration_reaches_plain_objective_with_fewer_updates(self, model):
        plain_v, plain = design_ls(self.CFG, model, eps=1e-3, accelerate=False)
        acc_v, acc = design_ls(self.CFG, model, eps=1e-3, accelerate=True)
        assert acc.converged and plain.converged
        assert acc.objectives[-1] <= plain.objectives[-1] * (1 + 1e-3)
        assert acc.total_updates < plain.total_updates

    def test_random_inits_converge(self, model, rng):
        for seed in range(5):
            init = random_feasible_pattern(np.random.default_rng(seed), 4, 5, model)
            _, trace = design_ls(self.CFG, model, init=init, accelerate=True)
            assert trace.converged
            assert np.all(np.diff(trace.objectives) <= 1e-12)

    def test_design_invariant_to_orthogonal_training_choice(self, model):
        # the final pattern objective translates to identical MSE
        # for any training with X X^H = diag(P)
        pattern, _ = design_ls(self.CFG, model, accelerate=True)
        x_dft = dft_training(2, 2, self.CFG.power)
        # another orthogonal choice: identity scaled to the budgets
        from risce.system import TrainingMatrix

        x_eye = TrainingMatrix(x=np.eye(2, dtype=complex), power=self.CFG.power)
        j1 = mse_ls(pattern.v, x_dft.x, 1.0, 4)
        j2 = mse_ls(pattern.v, x_eye.x, 1.0, 4)
        assert j1 == pytest.approx(j2, rel=1e-10)

    def test_max_iter_flag(self, model):
        _, trace = design_ls(self.CFG, model, eps=1e-12, max_iter=3, accelerate=False)
        assert not trace.converged
        assert trace.iterations == 3

    def test_init_of_another_size_is_rejected(self, model):
        # a 4-element pattern for an 8-element config, not a (5, 5) result
        with pytest.raises(DimensionMismatch):
            design_ls(SystemConfig(k=2, m=8, l=4), model, init=naive_pattern(4, 5, model))


@st.composite
def sublevel_problems(draw):
    """A random law, pattern size and anchor seed for the majorization suite."""
    m = draw(st.integers(1, 4))
    b = m + draw(st.integers(1, 3))
    model = ReflectionModel(
        beta_min=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.floats(0.5, 3.0)),
        delta=draw(st.floats(0.0, TWO_PI)),
    )
    return m, b, model, draw(st.integers(0, 2**32 - 1))


def _phase_perturbed(rng, v0, model, scale):
    """Feasible pattern whose phases are V0's moved by up to +-scale."""
    thetas = np.angle(v0.v[:-1]) + rng.uniform(-scale, scale, v0.v[:-1].shape)
    v = v0.v.copy()
    v[:-1] = reflection_coefficient(thetas, model)
    return ReflectionPattern(v=v)


@settings(max_examples=25, deadline=None)
@given(problem=sublevel_problems())
def test_majorization_on_the_sublevel_set(problem):
    # Tr[(V V^H)^-1] is unbounded near rank-deficient V, so no quadratic
    # majorizes it on the whole feasible set; the MM argument needs the bound
    # only on the sublevel set f(V) <= f(V0), which is what is checked here.
    m, b, model, seed = problem
    rng = np.random.default_rng(seed)
    v0 = random_feasible_pattern(rng, m, b, model)
    try:
        f0 = ls_objective(v0.v)
    except SingularGram:
        assume(False)
    lambda1, _ = ls_surrogate(v0.v, ls_score(v0.v)[1])
    sur = ls_majorizer(v0.v)
    scale = lambda1 * float(np.sum(np.abs(v0.v) ** 2))
    assert abs(sur(v0.v) - f0) <= 1e-9 * f0 + 1e-12 * scale
    for i in range(60):
        v = (random_feasible_pattern(rng, m, b, model) if i % 2 == 0
             else _phase_perturbed(rng, v0, model, 10.0 ** -(i % 7)))
        try:
            f = ls_objective(v.v)
        except SingularGram:
            continue
        if f <= f0:
            assert sur(v.v) >= f - 1e-12 * scale


@st.composite
def surrogate_problems(draw):
    """A random law, pattern size and anchor seed for the surrogate oracle."""
    m = draw(st.integers(1, 8))
    b = m + draw(st.integers(1, 3))
    model = ReflectionModel(
        beta_min=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.floats(0.5, 3.0)),
        delta=draw(st.floats(0.0, TWO_PI)),
    )
    return m, b, model, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(problem=surrogate_problems())
def test_surrogate_matches_explicit_inverse(problem):
    # lambda1 = 3 Tr[G^-1]^2, A0 = -V^H G^-2 - lambda1 V^H and the oracle's
    # const = f(0; V) = 3 Tr[G^-1] + lambda1 ||V||^2 (tangency at V), with
    # G = V V^H, from an explicit inverse; both sides carry errors of order
    # kappa(G) eps.
    m, b, model, seed = problem
    v = random_feasible_pattern(np.random.default_rng(seed), m, b, model)
    try:
        got_lambda1, got_a0 = ls_surrogate(v.v, ls_score(v.v)[1])
    except SingularGram:
        assume(False)
    gram = v.v @ v.v.conj().T
    tol = max(1e-12, 32 * np.linalg.cond(gram) * np.finfo(float).eps)
    g_inv = np.linalg.inv(gram)
    t = float(np.real(np.trace(g_inv)))
    lambda1 = 3.0 * t**2
    a0 = -v.v.conj().T @ g_inv @ g_inv - lambda1 * v.v.conj().T
    const = 3.0 * t + lambda1 * float(np.sum(np.abs(v.v) ** 2))
    assert got_lambda1 == pytest.approx(lambda1, rel=tol)
    assert np.linalg.norm(got_a0 - a0) <= tol * np.linalg.norm(a0)
    assert ls_majorizer(v.v)(np.zeros_like(v.v)) == pytest.approx(const, rel=tol)


@settings(max_examples=12, deadline=None)
@given(
    beta_min=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    alpha=st.one_of(st.floats(0.3, 1.0), st.floats(1.0, 3.0)),
    delta=st.floats(0.0, TWO_PI),
    accelerate=st.booleans(),
)
def test_anchored_desk_designs_never_rise(beta_min, alpha, delta, accelerate):
    # Each pattern step starts at its iterate's phases (the anchored search);
    # the desk-size trace stays non-increasing for every law, including
    # alpha < 1 (where the step is the global search alone) and beta_min = 0.
    model = ReflectionModel(beta_min=beta_min, alpha=alpha, delta=delta)
    _, trace = design_ls(SystemConfig(k=2, m=8, l=4), model, max_iter=60, accelerate=accelerate)
    objs = np.asarray(trace.objectives)
    assert np.all(np.isfinite(objs))
    assert np.all(np.diff(objs) <= 1e-12 * objs[:-1])
