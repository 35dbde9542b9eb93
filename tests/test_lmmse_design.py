"""Tests for the MM-based alternating LMMSE design."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ideal_update_lmmse,
    phase_cost,
    random_feasible_pattern,
    random_hpd,
    random_training,
)
from risce import lmmse_design, numerics
from risce.baselines import group_reduce
from risce.channel import (
    CorrelationSpec,
    cascaded_correlation,
    grouped_cascaded_correlation,
    kronecker_factors,
)
from risce.errors import DimensionMismatch
from risce.lmmse_design import (
    SAFETY_MARGIN,
    TrainingTerms,
    build_surrogate,
    design_lmmse,
    refresh_pattern_terms,
    surrogate_value,
    training_terms,
    update_pattern,
    update_training,
)
from risce.phase_model import ReflectionModel, ideal_model, project_to_feasible
from risce.system import (
    TrainingMatrix,
    build_S,
    lmmse_filter,
    lmmse_objective,
    mse_lmmse,
    mse_ls,
)
from risce.types import SystemConfig

TWO_PI = 2.0 * np.pi

CFG = SystemConfig(k=2, m=2, l=4, b=3, tau=2)
CORR = CorrelationSpec()
R = cascaded_correlation(CORR, 2, 2, 4)


def _state(rng, model, cfg=CFG, r=R):
    v0 = random_feasible_pattern(rng, cfg.m, cfg.b, model)
    x0 = random_training(rng, cfg.k, cfg.tau, cfg.power)
    return build_surrogate(x0, v0, kronecker_factors(r, cfg.k), cfg.sigma2, cfg.l), x0, v0


def _training_terms(state):
    return training_terms(state, numerics.largest_eigenvalue(state.factors.p).value)


def _pattern_terms(state, x, r=R):
    return refresh_pattern_terms(state, x, numerics.largest_eigenvalue(r).value)


def _block_traces(c0, b, k):
    """c[m, n] = Tr of the K x K block (n, m) of a dense (B K, (M+1) K) C0."""
    return np.einsum("nkmk->mn", c0.reshape(b, k, -1, k))


class TestFirstMajorization:
    def test_tangent_at_anchor(self, model, rng):
        state, x0, v0 = _state(rng, model)
        s0 = build_S(v0, x0)
        assert surrogate_value(state, s0) == pytest.approx(
            lmmse_objective(s0, R, 1.0, 4), rel=1e-8
        )

    def test_dominates_on_random_points(self, model, rng):
        state, _, _ = _state(rng, model)
        for _ in range(100):
            v = random_feasible_pattern(rng, CFG.m, CFG.b, model)
            x = random_training(rng, CFG.k, CFG.tau, CFG.power)
            s = build_S(v, x)
            g = lmmse_objective(s, R, 1.0, 4)
            assert surrogate_value(state, s) >= g - 1e-8 * abs(g)

    def test_gradient_matches_at_anchor(self, model, rng):
        state, x0, v0 = _state(rng, model)
        s0 = build_S(v0, x0)
        h = 1e-6

        def fd_grad(fun):
            grad = np.zeros(2 * s0.size)
            for idx in range(s0.size):
                for part, off in ((1.0, 0), (1.0j, s0.size)):
                    d = np.zeros_like(s0)
                    d.flat[idx] = part * h
                    grad[idx + off] = (fun(s0 + d) - fun(s0 - d)) / (2 * h)
            return grad

        g_true = fd_grad(lambda s: lmmse_objective(s, R, 1.0, 4))
        g_sur = fd_grad(lambda s: surrogate_value(state, s))
        assert np.linalg.norm(g_true - g_sur) <= 1e-4 * np.linalg.norm(g_true)


class TestSecondMajorization:
    def _training_bound(self, state, xt, xt0, m_v):
        # quadratic bound of the training subproblem including its constant
        lambda2 = _training_terms(state).lambda2
        quad_anchor = np.real(
            np.vdot(xt0.reshape(-1, order="F"),
                    (lambda2 * np.eye(xt0.size)
                     - np.kron(state.xi_gram.T, m_v)) @ xt0.reshape(-1, order="F"))
        )
        lin = lambda2 * np.trace(xt0.conj().T @ xt) \
            - np.trace(state.xi_gram @ xt0.conj().T @ m_v @ xt)
        return (
            lambda2 * np.linalg.norm(xt) ** 2
            - 2.0 * np.real(lin)
            + quad_anchor
        )

    def _training_quad(self, xt, state, m_v):
        return float(np.real(np.trace(
            state.xi0.conj().T @ xt.conj().T @ m_v @ xt @ state.xi0
        )))

    def test_training_bound_tangent_and_dominating(self, model, rng):
        state, x0, v0 = _state(rng, model)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        m_v = vt0.conj().T @ R @ vt0
        xt0 = np.kron(np.eye(CFG.b), x0.x)
        at_anchor = self._training_bound(state, xt0, xt0, m_v)
        assert at_anchor == pytest.approx(self._training_quad(xt0, state, m_v), rel=1e-8)
        for _ in range(25):
            xt = rng.standard_normal(xt0.shape) + 1j * rng.standard_normal(xt0.shape)
            assert self._training_bound(state, xt, xt0, m_v) >= \
                self._training_quad(xt, state, m_v) - 1e-8

    def test_spectral_bounds_match_dense_eigensolver(self, model, rng):
        state, x0, v0 = _state(rng, model)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        xt0 = np.kron(np.eye(CFG.b), x0.x)
        m_v = vt0.conj().T @ R @ vt0
        lam2_oracle = float(
            np.linalg.eigvalsh(state.xi_gram)[-1] * np.linalg.eigvalsh(m_v)[-1]
        )
        assert _training_terms(state).lambda2 / SAFETY_MARGIN == pytest.approx(
            lam2_oracle, rel=1e-12)
        w = xt0 @ state.xi_gram @ xt0.conj().T
        lam3_oracle = float(
            np.linalg.eigvalsh(w)[-1] * np.linalg.eigvalsh(R)[-1]
        )
        assert _pattern_terms(state, x0).lambda3 / SAFETY_MARGIN == pytest.approx(
            lam3_oracle, rel=1e-12)

    def test_identity_prior_spectrum(self, model, rng):
        # R = L I makes lambda3 exactly L * lambda_max of the training factor
        r_id = 4.0 * np.eye((CFG.m + 1) * CFG.k)
        state, x0, v0 = _state(rng, model, r=r_id)
        xt0 = np.kron(np.eye(CFG.b), x0.x)
        w = xt0 @ state.xi_gram @ xt0.conj().T
        expected = SAFETY_MARGIN * float(np.linalg.eigvalsh(w)[-1]) * 4.0
        assert _pattern_terms(state, x0, r_id).lambda3 == pytest.approx(expected, rel=1e-12)

    def test_kron_eigenvalue_factorization(self, model, rng):
        # the factored bound equals the eigenvalue of the full Kronecker form
        state, x0, v0 = _state(rng, model)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        m_v = vt0.conj().T @ R @ vt0
        full = np.kron(state.xi_gram.T, m_v)
        assert _training_terms(state).lambda2 / SAFETY_MARGIN == pytest.approx(
            float(np.linalg.eigvalsh(full)[-1]), rel=1e-12
        )


class TestUpdateTraining:
    def _manual_state(self, b_k, lam2, p, b=1):
        # B subframes whose diagonal blocks each contribute b_k
        tau = len(b_k)
        b_sums = b * np.asarray(b_k, dtype=complex).reshape(tau, 1)
        x0 = TrainingMatrix(x=np.zeros((1, tau), dtype=complex), power=np.array([p]))
        return TrainingTerms(lambda2=lam2, b_sums=b_sums, b=b, x0=x0)

    def test_boundary_branch(self):
        state = self._manual_state([2.0, 0.0], lam2=1.0, p=1.0)
        x = update_training(state, [1.0])
        assert np.allclose(x.x[0], [1.0, 0.0])

    def test_interior_branch(self):
        state = self._manual_state([0.5, 0.0], lam2=1.0, p=1.0)
        x = update_training(state, [1.0])
        assert np.allclose(x.x[0], [0.5, 0.0])

    def test_zero_gradient_keeps_previous_row(self):
        state = self._manual_state([0.0, 0.0], lam2=1.0, p=1.0)
        x = update_training(state, [1.0])
        assert np.allclose(x.x[0], state.x0.x[0])

    def test_matches_projected_gradient_oracle(self, rng):
        for _ in range(100):
            tau = int(rng.integers(1, 5))
            b = int(rng.integers(1, 4))
            lam2 = rng.uniform(0.2, 3.0)
            p = rng.uniform(0.2, 3.0)
            b_k = rng.standard_normal(tau) + 1j * rng.standard_normal(tau)
            # closed form through update_training; the single-subframe state
            # carries lam2*b so its threshold matches the b-subframe problem
            state = self._manual_state(b_k, lam2 * b, p, b=1)
            x_closed = update_training(state, [p]).x[0]
            # independent oracle: projected gradient on
            # min lam2*b*||x||^2 - 2 Re{b_k^H x} s.t. ||x||^2 <= p
            x = np.zeros(tau, dtype=complex)
            step = 0.4 / (2 * lam2 * b)
            for _ in range(500):
                x = x - step * (2 * lam2 * b * x - 2 * b_k)
                norm = np.linalg.norm(x)
                if norm > np.sqrt(p):
                    x *= np.sqrt(p) / norm
            assert np.linalg.norm(x - x_closed) < 1e-6

    def test_power_feasibility_exact(self, model, rng):
        state, _, _ = _state(rng, model)
        x = update_training(_training_terms(state), CFG.power)
        assert np.all(np.sum(np.abs(x.x) ** 2, axis=1) <= CFG.power + 1e-9)


class TestUpdatePattern:
    def test_ideal_model_closed_form(self, rng):
        state, x0, v0 = _state(rng, ideal_model())
        terms = _pattern_terms(state, x0)
        out = update_pattern(terms, ideal_model())
        closed = ideal_update_lmmse(terms.c)
        assert np.allclose(out.v, closed.v, atol=1e-12)

    def test_entries_are_projection_fixed_points(self, model, rng):
        state, x0, _ = _state(rng, model)
        out = update_pattern(_pattern_terms(state, x0), model)
        assert np.allclose(
            project_to_feasible(out.v[:-1], model), out.v[:-1], atol=1e-12
        )
        assert np.allclose(out.v[-1], 1.0)

    def test_matches_exhaustive_grid(self, model, rng):
        state, x0, _ = _state(rng, model)
        terms = _pattern_terms(state, x0)
        out = update_pattern(terms, model)
        c_mat = terms.c
        grid = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
        for m in range(CFG.m):
            for n in range(CFG.b):
                q, c = terms.lambda3 * CFG.k, -c_mat[m, n]
                vals = phase_cost(q, c, grid, model)
                achieved = phase_cost(q, c, float(np.angle(out.v[m, n]) % TWO_PI), model)
                assert achieved <= np.min(vals) + 1e-9 * max(abs(np.min(vals)), 1e-9)


class TestDesignLmmse:
    BIG = SystemConfig(k=2, m=4, l=4, b=5, tau=2)
    R_BIG = cascaded_correlation(CORR, 4, 2, 4)

    def test_monotone_descent_and_convergence(self, model):
        x, v, trace = design_lmmse(self.BIG, model, self.R_BIG, accelerate=False)
        assert trace.converged
        assert np.all(np.diff(trace.objectives) <= 1e-10)
        assert trace.final_objective <= trace.objectives[0]

    def test_final_power_budgets_hold(self, model):
        x, _, _ = design_lmmse(self.BIG, model, self.R_BIG, accelerate=True)
        assert np.all(np.sum(np.abs(x.x) ** 2, axis=1) <= self.BIG.power + 1e-9)

    def test_final_lmmse_not_worse_than_ls_on_same_s(self, model):
        x, v, _ = design_lmmse(self.BIG, model, self.R_BIG, accelerate=True)
        f = kronecker_factors(self.R_BIG, 2)
        assert mse_lmmse(v.v, x.x, f, 1.0, 4) <= mse_ls(build_S(v, x), 1.0, 4) + 1e-9

    def test_single_ue_uncorrelated_ideal_reaches_closed_form(self):
        # orthogonal pattern is optimal: J = (M+1) K L / (1 + (M+1) P / sigma2)
        m, l, p = 3, 4, 2.0
        cfg = SystemConfig(k=1, m=m, l=l, b=m + 1, tau=1, power=np.array([p]))
        r = l * np.eye(m + 1)
        x, v, trace = design_lmmse(cfg, ideal_model(), r, accelerate=False)
        expected = (m + 1) * 1 * l / (1.0 + (m + 1) * p / 1.0)
        assert trace.final_objective == pytest.approx(expected, rel=0.01)

    def test_acceleration_reaches_plain_level_with_fewer_rebuilds(self, model):
        _, _, plain = design_lmmse(self.BIG, model, self.R_BIG, accelerate=False)
        _, _, acc = design_lmmse(self.BIG, model, self.R_BIG, accelerate=True)
        target = plain.final_objective * (1 + 1e-3)
        reached = [
            calls for obj, calls in zip(acc.objectives, acc.update_calls)
            if obj <= target
        ]
        assert reached, "accelerated run never reached the plain-MM objective"
        assert reached[0] < plain.total_updates

    def test_refresh_keeps_anchor_quantities(self, model, rng):
        state, x0, v0 = _state(rng, model)
        xi0, lambda2 = state.xi0.copy(), _training_terms(state).lambda2
        x1 = update_training(_training_terms(state), CFG.power)
        terms = _pattern_terms(state, x1)
        # the terms are taken at x1, on the anchor's Xi0 and V0
        xt1 = np.kron(np.eye(CFG.b), x1.x)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        w = xt1 @ state.xi_gram @ xt1.conj().T
        c0 = terms.lambda3 * vt0.conj().T - w @ vt0.conj().T @ R + xt1 @ xi0 @ R
        dense = _block_traces(c0, CFG.b, CFG.k)
        assert np.max(np.abs(terms.c - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.array_equal(state.xi0, xi0)
        assert _training_terms(state).lambda2 == lambda2

    def test_zero_noise_stops_after_one_step(self, model):
        # sigma^2 = 0 makes J = 0 at every full-rank S; a step from 0 to 0
        # has converged, where 0 < eps * 0 would never fire
        cfg = SystemConfig(k=2, m=8, l=4, sigma2=0.0)
        r = cascaded_correlation(CORR, 8, 2, 4)
        for accelerate in (False, True):
            _, _, trace = design_lmmse(cfg, model, r, accelerate=accelerate)
            assert trace.converged and trace.iterations == 1
            assert trace.objectives == [0.0, 0.0]

    def test_round_descends_through_both_blocks(self, model, rng):
        # one full X-then-V round never increases the true objective
        for seed in range(5):
            g = np.random.default_rng(seed)
            v0 = random_feasible_pattern(g, self.BIG.m, self.BIG.b, model)
            x0 = random_training(g, self.BIG.k, self.BIG.tau, self.BIG.power)
            f = kronecker_factors(self.R_BIG, 2)
            j0 = mse_lmmse(v0.v, x0.x, f, 1.0, 4)
            state = build_surrogate(x0, v0, f, 1.0, 4)
            x1 = update_training(_training_terms(state), self.BIG.power)
            v1 = update_pattern(_pattern_terms(state, x1, self.R_BIG), model)
            j1 = mse_lmmse(v1.v, x1.x, f, 1.0, 4)
            assert j1 <= j0 + 1e-10


class TestEigenSolveCount:
    """Each step builds only the surrogate terms it reads."""

    BIG, R_BIG = TestDesignLmmse.BIG, TestDesignLmmse.R_BIG

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        original = numerics.largest_eigenvalue

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(numerics, "largest_eigenvalue", counted)
        return calls

    def test_plain_round_makes_two(self, model, eig_calls):
        # lambda_max(A) and lambda_max(P) once per design, then the dense
        # lambda_max of Xi0 Xi0^H for lambda2 and of W for lambda3, per round;
        # lambda_max(M_v) comes from the anchor's B x B eigen-solve
        _, _, trace = design_lmmse(self.BIG, model, self.R_BIG, accelerate=False)
        assert trace.iterations > 1
        assert eig_calls[:2] == [(self.BIG.k,) * 2, (self.BIG.m + 1,) * 2]
        assert len(eig_calls) == 2 + 2 * trace.iterations

    def test_squarem_update_builds_its_own_block_only(self, model, eig_calls, monkeypatch):
        per_update = {"training": [], "pattern": []}

        def counting(block, fn):
            def wrapped(*args):
                before = len(eig_calls)
                out = fn(*args)
                per_update[block].append(len(eig_calls) - before)
                return out
            return wrapped

        monkeypatch.setattr(lmmse_design, "training_terms",
                            counting("training", lmmse_design.training_terms))
        monkeypatch.setattr(lmmse_design, "refresh_pattern_terms",
                            counting("pattern", lmmse_design.refresh_pattern_terms))
        _, _, trace = design_lmmse(self.BIG, model, self.R_BIG, accelerate=True)
        assert per_update["training"] == [1] * (2 * trace.iterations)
        assert per_update["pattern"] == [1] * (2 * trace.iterations)
        assert len(eig_calls) == 2 + 4 * trace.iterations


_psi = st.floats(0.0, 0.95, exclude_max=True)


@st.composite
def factored_problems(draw):
    """A grouped correlation, a law, an SNR in [-10, 40] dB and a seed."""
    k, m_g, rho = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cfg = SystemConfig(k=k, m=m_g, l=draw(st.integers(1, 4)), b=m_g + draw(st.integers(1, 2)),
                       tau=k + draw(st.integers(0, 2)),
                       power=np.full(k, 10.0 ** (draw(st.floats(-10.0, 40.0)) / 10.0)))
    indicator = group_reduce(m_g * rho, rho).indicator()
    r = grouped_cascaded_correlation(CorrelationSpec(*draw(st.tuples(_psi, _psi, _psi))),
                                     indicator, k, cfg.l)
    model = ReflectionModel(beta_min=draw(st.floats(0.0, 1.0)), alpha=draw(st.floats(0.5, 3.0)),
                            delta=draw(st.floats(0.0, TWO_PI)))
    return cfg, r, model, draw(st.integers(0, 2**32 - 1))


def _assert_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(problem=factored_problems())
def test_factored_terms_match_dense(problem):
    # The anchor, the step terms, the spectral bounds and the MSE from the
    # Kronecker factors against the dense (M+1)K-sized forms.
    cfg, r, model, seed = problem
    rng = np.random.default_rng(seed)
    k, b, tau, l = cfg.k, cfg.b, cfg.tau, cfg.l
    v0 = random_feasible_pattern(rng, cfg.m, b, model)
    x0, x1 = (random_training(rng, k, tau, cfg.power) for _ in range(2))
    f = kronecker_factors(r, k)
    p_max = numerics.largest_eigenvalue(f.p).value
    r_max = numerics.largest_eigenvalue(f.a).value * p_max
    state = build_surrogate(x0, v0, f, 1.0, l)
    train, pattern = training_terms(state, p_max), refresh_pattern_terms(state, x1, r_max)

    vt0, xt0, xt1 = np.kron(v0.v, np.eye(k)), np.kron(np.eye(b), x0.x), np.kron(np.eye(b), x1.x)
    s0 = vt0 @ xt0
    xi0 = lmmse_filter(s0, r, 1.0, l)[0]
    gram, m_v = xi0 @ xi0.conj().T, vt0.conj().T @ r @ vt0
    lambda2 = SAFETY_MARGIN * np.linalg.eigvalsh(gram)[-1] * np.linalg.eigvalsh(m_v)[-1]
    b0 = lambda2 * xt0.conj().T - gram @ xt0.conj().T @ m_v + xi0 @ r @ vt0
    w = xt1 @ gram @ xt1.conj().T
    lambda3 = SAFETY_MARGIN * np.linalg.eigvalsh(w)[-1] * np.linalg.eigvalsh(r)[-1]
    c0 = lambda3 * vt0.conj().T - w @ vt0.conj().T @ r + xt1 @ xi0 @ r

    # 1e-12, or the dense Cholesky solve's own forward-error scale where its
    # condition number kappa makes that coarser (both sides err by ~kappa eps)
    kappa = np.linalg.cond(s0.conj().T @ r @ s0 + l * np.eye(b * tau))
    rel = max(1e-12, 32 * np.finfo(float).eps * kappa)
    _assert_close(state.xi0, xi0, rel)
    _assert_close(train.b_sums, np.conj(np.einsum("atak->tk", b0.reshape(b, tau, b, k))), rel)
    _assert_close(pattern.c, _block_traces(c0, b, k), rel)
    assert state.vav0_max * p_max == pytest.approx(np.linalg.eigvalsh(m_v)[-1], rel=1e-12)
    assert r_max == pytest.approx(np.linalg.eigvalsh(r)[-1], rel=1e-12)
    if cfg.power[0] <= 100.0:
        # above 20 dB the dense Tr R - explained side loses digits itself
        dense = np.real(np.trace(r)) + lmmse_objective(build_S(v0, x1), r, 1.0, l)
        assert mse_lmmse(v0.v, x1.x, f, 1.0, l) == pytest.approx(dense, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(2, 3), n_a=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_kronecker_factors_reject_dense_hpd(k, n_a, seed):
    r = random_hpd(np.random.default_rng(seed), n_a * k)
    with pytest.raises(DimensionMismatch):
        kronecker_factors(r, k)
