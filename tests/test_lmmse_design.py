"""Tests for the MM-based alternating LMMSE design."""

import numpy as np
import pytest

from conftest import random_feasible_pattern, random_training
from risce.baselines import ideal_update_lmmse
from risce.channel import CorrelationSpec, cascaded_correlation
from risce.lmmse_design import (
    SAFETY_MARGIN,
    LmmseSurrogateState,
    build_surrogate,
    design_lmmse,
    refresh_pattern_terms,
    surrogate_value,
    update_pattern,
    update_training,
)
from risce.phase_model import ScalarPhaseObjective, ideal_model, project_to_feasible
from risce.system import (
    ReflectionPattern,
    TrainingMatrix,
    build_S,
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
    return build_surrogate(x0, v0, r, cfg.sigma2, cfg.l), x0, v0


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
        quad_anchor = np.real(
            np.vdot(xt0.reshape(-1, order="F"),
                    (state.lambda2 * np.eye(xt0.size)
                     - np.kron(state.xi_gram.T, m_v)) @ xt0.reshape(-1, order="F"))
        )
        lin = state.lambda2 * np.trace(xt0.conj().T @ xt) \
            - np.trace(state.xi_gram @ xt0.conj().T @ m_v @ xt)
        return (
            state.lambda2 * np.linalg.norm(xt) ** 2
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
        assert state.lambda2 / SAFETY_MARGIN == pytest.approx(lam2_oracle, rel=1e-12)
        w = xt0 @ state.xi_gram @ xt0.conj().T
        lam3_oracle = float(
            np.linalg.eigvalsh(w)[-1] * np.linalg.eigvalsh(R)[-1]
        )
        assert state.lambda3 / SAFETY_MARGIN == pytest.approx(lam3_oracle, rel=1e-12)

    def test_identity_prior_spectrum(self, model, rng):
        # R = L I makes lambda3 exactly L * lambda_max of the training factor
        r_id = 4.0 * np.eye((CFG.m + 1) * CFG.k)
        state, x0, v0 = _state(rng, model, r=r_id)
        xt0 = np.kron(np.eye(CFG.b), x0.x)
        w = xt0 @ state.xi_gram @ xt0.conj().T
        expected = SAFETY_MARGIN * float(np.linalg.eigvalsh(w)[-1]) * 4.0
        assert state.lambda3 == pytest.approx(expected, rel=1e-12)

    def test_kron_eigenvalue_factorization(self, model, rng):
        # the factored bound equals the eigenvalue of the full Kronecker form
        state, x0, v0 = _state(rng, model)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        m_v = vt0.conj().T @ R @ vt0
        full = np.kron(state.xi_gram.T, m_v)
        assert state.lambda2 / SAFETY_MARGIN == pytest.approx(
            float(np.linalg.eigvalsh(full)[-1]), rel=1e-12
        )


class TestUpdateTraining:
    def _manual_state(self, b_k, lam2, p, b=1):
        tau = len(b_k)
        b0 = np.conj(np.asarray(b_k, dtype=complex)).reshape(tau, 1)
        x0 = TrainingMatrix(x=np.zeros((1, tau), dtype=complex), power=np.array([p]))
        v0 = ReflectionPattern(v=np.ones((2, b), dtype=complex))
        return LmmseSurrogateState(
            xi0=np.zeros((tau * b, 2)), xi_gram=np.zeros((tau * b, tau * b)),
            lambda2=lam2, lambda3=1.0, b0=np.tile(b0, (b, b)),
            c0=np.zeros((b, 2)), x0=x0, v0=v0, r_gamma=np.eye(2),
            sigma2=1.0, l=1,
        )

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
        x = update_training(state, CFG.power)
        assert np.all(np.sum(np.abs(x.x) ** 2, axis=1) <= CFG.power + 1e-9)


class TestUpdatePattern:
    def test_ideal_model_closed_form(self, rng):
        state, x0, v0 = _state(rng, ideal_model())
        out = update_pattern(state, ideal_model())
        c_mat = np.einsum(
            "nkmk->mn", state.c0.reshape(CFG.b, CFG.k, CFG.m + 1, CFG.k)
        )
        closed = ideal_update_lmmse(c_mat)
        assert np.allclose(out.v, closed.v, atol=1e-6)

    def test_entries_are_projection_fixed_points(self, model, rng):
        state, _, _ = _state(rng, model)
        out = update_pattern(state, model)
        assert np.allclose(
            project_to_feasible(out.v[:-1], model), out.v[:-1], atol=1e-12
        )
        assert np.allclose(out.v[-1], 1.0)

    def test_matches_exhaustive_grid(self, model, rng):
        state, _, _ = _state(rng, model)
        out = update_pattern(state, model)
        c_mat = np.einsum(
            "nkmk->mn", state.c0.reshape(CFG.b, CFG.k, CFG.m + 1, CFG.k)
        )
        grid = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
        for m in range(CFG.m):
            for n in range(CFG.b):
                obj = ScalarPhaseObjective(state.lambda3 * CFG.k, -c_mat[m, n])
                vals = obj.evaluate(grid, model)
                achieved = obj.evaluate(float(np.angle(out.v[m, n]) % TWO_PI), model)
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
        s = build_S(v, x)
        assert mse_lmmse(s, self.R_BIG, 1.0, 4) <= mse_ls(s, 1.0, 4) + 1e-9

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
        x1 = update_training(state, CFG.power)
        state2 = refresh_pattern_terms(state, x1)
        assert state2.x0 is x1
        assert np.array_equal(state2.xi0, state.xi0)
        assert state2.lambda2 == state.lambda2

    def test_round_descends_through_both_blocks(self, model, rng):
        # one full X-then-V round never increases the true objective
        for seed in range(5):
            g = np.random.default_rng(seed)
            v0 = random_feasible_pattern(g, self.BIG.m, self.BIG.b, model)
            x0 = random_training(g, self.BIG.k, self.BIG.tau, self.BIG.power)
            j0 = mse_lmmse(build_S(v0, x0), self.R_BIG, 1.0, 4)
            state = build_surrogate(x0, v0, self.R_BIG, 1.0, 4)
            x1 = update_training(state, self.BIG.power)
            state = refresh_pattern_terms(state, x1)
            v1 = update_pattern(state, model)
            j1 = mse_lmmse(build_S(v1, x1), self.R_BIG, 1.0, 4)
            assert j1 <= j0 + 1e-10
