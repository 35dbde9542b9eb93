"""Tests for the MM-based alternating LMMSE design."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ideal_update_lmmse,
    lmmse_filter,
    lmmse_objective,
    lmmse_surrogate_value,
    phase_cost,
    random_feasible_pattern,
    random_hpd,
    random_training,
)
from risce import lmmse_design, numerics
from risce.baselines import group_reduce, naive_pattern
from risce.channel import (
    CorrelationSpec,
    cascaded_correlation,
    grouped_cascaded_correlation,
    kronecker_factors,
)
from risce.errors import DimensionMismatch
from risce.ls_design import design_ls, dft_training
from risce.lmmse_design import (
    SAFETY_MARGIN,
    TrainingTerms,
    build_surrogate,
    design_lmmse,
    refresh_pattern_terms,
    training_terms,
    update_pattern,
    update_training,
)
from risce.phase_model import (
    ReflectionModel,
    ideal_model,
    project_to_feasible,
    reflection_coefficient,
)
from risce.system import build_S, lmmse_spectrum, mse_lmmse, mse_ls
from risce.types import SystemConfig

TWO_PI = 2.0 * np.pi

CFG = SystemConfig(k=2, m=2, l=4, b=3, tau=2)
CORR = CorrelationSpec()
R = cascaded_correlation(CORR, 2, 2, 4)


def _state(rng, model, cfg=CFG, r=R):
    v0 = random_feasible_pattern(rng, cfg.m, cfg.b, model)
    x0 = random_training(rng, cfg.k, cfg.tau, cfg.power)
    return _anchor(x0.x, v0.v, kronecker_factors(r, cfg.k), cfg.sigma2, cfg.l), x0, v0


def _anchor(x0, v0, f, sigma2, l):
    spectra = [lmmse_spectrum(f.a_half, v0), lmmse_spectrum(f.p_half, x0)]
    return build_surrogate(x0, v0, spectra, f, sigma2, l)


def _dense_anchor(x0, v0, r=R, cfg=CFG):
    """The dense Xi0 at S0 = kron(V0, X0), from the inputs alone."""
    return lmmse_filter(np.kron(v0, x0), r, cfg.sigma2, cfg.l)


def _training_terms(state):
    return training_terms(state, numerics.largest_eigenvalue(state.factors.p).value)


def _pattern_terms(state, x):
    return refresh_pattern_terms(state, x, numerics.largest_eigenvalue(state.factors.a).value)


def _block_traces(c0, b, k):
    """c[m, n] = Tr of the K x K block (n, m) of a dense (B K, (M+1) K) C0."""
    return np.einsum("nkmk->mn", c0.reshape(b, k, -1, k))


class TestFirstMajorization:
    def test_tangent_at_anchor(self, model, rng):
        _, x0, v0 = _state(rng, model)
        s0 = build_S(v0, x0)
        assert lmmse_surrogate_value(x0.x, v0.v, R, s0, 1.0, 4) == pytest.approx(
            lmmse_objective(s0, R, 1.0, 4), rel=1e-8
        )

    def test_dominates_on_random_points(self, model, rng):
        _, x0, v0 = _state(rng, model)
        for _ in range(100):
            v = random_feasible_pattern(rng, CFG.m, CFG.b, model)
            x = random_training(rng, CFG.k, CFG.tau, CFG.power)
            s = build_S(v, x)
            g = lmmse_objective(s, R, 1.0, 4)
            assert lmmse_surrogate_value(x0.x, v0.v, R, s, 1.0, 4) >= g - 1e-8 * abs(g)

    def test_gradient_matches_at_anchor(self, model, rng):
        _, x0, v0 = _state(rng, model)
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
        g_sur = fd_grad(lambda s: lmmse_surrogate_value(x0.x, v0.v, R, s, 1.0, 4))
        assert np.linalg.norm(g_true - g_sur) <= 1e-4 * np.linalg.norm(g_true)


class TestSecondMajorization:
    def _training_quad(self, x, xi0, m_v):
        # the quadratic of g(S; S0) along X at V = V0: Tr[Xi0^H Xt^H M_v Xt Xi0]
        xt = np.kron(np.eye(CFG.b), x)
        return float(np.real(np.trace(xi0.conj().T @ xt.conj().T @ m_v @ xt @ xi0)))

    def _training_bound(self, state, xi0, x, x0, m_v):
        # that quadratic's bound at X0, including its constant: the value and
        # gradient at X0 plus the step's mu_X ||X - X0||^2
        xt0, d = np.kron(np.eye(CFG.b), x0), np.kron(np.eye(CFG.b), x - x0)
        lin = np.trace(xi0 @ xi0.conj().T @ d.conj().T @ m_v @ xt0)
        curvature = _training_terms(state).curvature
        return (self._training_quad(x0, xi0, m_v) + 2.0 * np.real(lin)
                + curvature * np.linalg.norm(x - x0) ** 2)

    def test_training_bound_tangent_and_dominating(self, model, rng):
        state, x0, v0 = _state(rng, model)
        xi0 = _dense_anchor(x0.x, v0.v)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        m_v = vt0.conj().T @ R @ vt0
        at_anchor = self._training_bound(state, xi0, x0.x, x0.x, m_v)
        assert at_anchor == pytest.approx(self._training_quad(x0.x, xi0, m_v), rel=1e-8)
        for _ in range(25):
            x = rng.standard_normal(x0.x.shape) + 1j * rng.standard_normal(x0.x.shape)
            assert self._training_bound(state, xi0, x, x0.x, m_v) >= \
                self._training_quad(x, xi0, m_v) - 1e-8

    @staticmethod
    def _t2_tw(xi0, v0, x, a, p):
        # T2 = sum_{b,b'} (V0^H A V0)_{b'b} G_{bb'} and Tw_{bb'} = Tr[G_{bb'} X^H P X],
        # G = Xi0 Xi0^H, summed block by block
        tau, b, gram = CFG.tau, CFG.b, xi0 @ xi0.conj().T
        vav = v0.conj().T @ a @ v0
        xpx = x.conj().T @ p @ x
        blk = [[gram[i * tau:(i + 1) * tau, j * tau:(j + 1) * tau]
                for j in range(b)] for i in range(b)]
        t2 = sum(vav[j, i] * blk[i][j] for i in range(b) for j in range(b))
        tw = np.array([[np.trace(blk[i][j] @ xpx) for j in range(b)] for i in range(b)])
        return t2, tw

    def test_spectral_bounds_match_dense_eigensolver(self, model, rng):
        # mu_X and mu_V are lambda_max of the dense Hessians of Tr[R S G S^H]
        # in vec(X) at V0 and in vec(V) at X0, with the full (M+1)K-sized R
        state, x0, v0 = _state(rng, model)
        xi0 = _dense_anchor(x0.x, v0.v)
        gram = xi0 @ xi0.conj().T
        h_x = _block_hessian(R, gram, lambda x: np.kron(v0.v, x), x0.x.shape)
        h_v = _block_hessian(R, gram, lambda v: np.kron(v, x0.x), v0.v.shape)
        assert _training_terms(state).curvature / SAFETY_MARGIN == pytest.approx(
            float(np.linalg.eigvalsh(h_x)[-1]), rel=1e-12)
        assert _pattern_terms(state, x0.x).curvature / SAFETY_MARGIN == pytest.approx(
            float(np.linalg.eigvalsh(h_v)[-1]), rel=1e-12)

    def test_identity_prior_spectrum(self, model, rng):
        # R = L I makes mu_X exactly L lambda_max(T2) and mu_V L lambda_max(Tw)
        # taken with A = P = I, whatever scale the factorization gives A and P
        r_id = 4.0 * np.eye((CFG.m + 1) * CFG.k)
        state, x0, v0 = _state(rng, model, r=r_id)
        xi0 = _dense_anchor(x0.x, v0.v, r=r_id)
        t2, tw = self._t2_tw(xi0, v0.v, x0.x, np.eye(CFG.m + 1), np.eye(CFG.k))
        assert _training_terms(state).curvature == pytest.approx(
            SAFETY_MARGIN * 4.0 * float(np.linalg.eigvalsh(t2)[-1]), rel=1e-12)
        assert _pattern_terms(state, x0.x).curvature == pytest.approx(
            SAFETY_MARGIN * 4.0 * float(np.linalg.eigvalsh(tw)[-1]), rel=1e-12)

    def test_kron_eigenvalue_factorization(self, model, rng):
        # the factored curvature equals the eigenvalue of the full Kronecker
        # form: lambda_max(T2^T kron P) and lambda_max(Tw^T kron A)
        state, x0, v0 = _state(rng, model)
        a, p = state.factors.a, state.factors.p
        t2, tw = self._t2_tw(_dense_anchor(x0.x, v0.v), v0.v, x0.x, a, p)
        assert _training_terms(state).curvature / SAFETY_MARGIN == pytest.approx(
            float(np.linalg.eigvalsh(np.kron(t2.T, p))[-1]), rel=1e-12)
        assert _pattern_terms(state, x0.x).curvature / SAFETY_MARGIN == pytest.approx(
            float(np.linalg.eigvalsh(np.kron(tw.T, a))[-1]), rel=1e-12)


class TestUpdateTraining:
    def _manual_state(self, b_k, lam2, p, b=1):
        # B subframes whose diagonal blocks each contribute b_k, at curvature lam2 B
        tau = len(b_k)
        b_sums = b * np.asarray(b_k, dtype=complex).reshape(tau, 1)
        x0 = np.zeros((1, tau), dtype=complex)
        return TrainingTerms(curvature=lam2 * b, b_sums=b_sums, x0=x0)

    def test_boundary_branch(self):
        state = self._manual_state([2.0, 0.0], lam2=1.0, p=1.0)
        x = update_training(state, [1.0])
        assert np.allclose(x[0], [1.0, 0.0])

    def test_interior_branch(self):
        state = self._manual_state([0.5, 0.0], lam2=1.0, p=1.0)
        x = update_training(state, [1.0])
        assert np.allclose(x[0], [0.5, 0.0])

    def test_zero_gradient_keeps_previous_row(self):
        state = self._manual_state([0.0, 0.0], lam2=1.0, p=1.0)
        x = update_training(state, [1.0])
        assert np.allclose(x[0], state.x0[0])

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
            x_closed = update_training(state, [p])[0]
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
        assert np.all(np.sum(np.abs(x) ** 2, axis=1) <= CFG.power + 1e-9)


class TestUpdatePattern:
    def test_ideal_model_closed_form(self, rng):
        state, x0, v0 = _state(rng, ideal_model())
        terms = _pattern_terms(state, x0.x)
        out = update_pattern(terms, ideal_model())
        closed = ideal_update_lmmse(terms.c)
        assert np.allclose(out, closed.v, atol=1e-12)

    def test_entries_are_projection_fixed_points(self, model, rng):
        state, x0, _ = _state(rng, model)
        out = update_pattern(_pattern_terms(state, x0.x), model)
        assert np.allclose(
            project_to_feasible(out[:-1], model), out[:-1], atol=1e-12
        )
        assert np.allclose(out[-1], 1.0)

    def test_matches_exhaustive_grid(self, model, rng):
        state, x0, _ = _state(rng, model)
        terms = _pattern_terms(state, x0.x)
        out = update_pattern(terms, model)
        c_mat = terms.c
        grid = np.linspace(0.0, TWO_PI, 200_000, endpoint=False)
        for m in range(CFG.m):
            for n in range(CFG.b):
                q, c = terms.curvature, -c_mat[m, n]
                vals = phase_cost(q, c, grid, model)
                achieved = phase_cost(q, c, float(np.angle(out[m, n]) % TWO_PI), model)
                assert achieved <= np.min(vals) + 1e-9 * max(abs(np.min(vals)), 1e-9)


class TestDesignLmmse:
    BIG = SystemConfig(k=2, m=4, l=4, b=5, tau=2)
    R_BIG = cascaded_correlation(CORR, 4, 2, 4)

    def test_monotone_descent_and_convergence(self, model):
        x, v, trace = design_lmmse(self.BIG, model, self.R_BIG, accelerate=False)
        assert trace.converged
        assert np.all(np.diff(trace.objectives) <= 1e-10)
        assert trace.objectives[-1] <= trace.objectives[0]

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
        assert trace.objectives[-1] == pytest.approx(expected, rel=0.01)

    def test_acceleration_reaches_plain_level_with_fewer_rebuilds(self, model):
        _, _, plain = design_lmmse(self.BIG, model, self.R_BIG, accelerate=False)
        _, _, acc = design_lmmse(self.BIG, model, self.R_BIG, accelerate=True)
        target = plain.objectives[-1] * (1 + 1e-3)
        reached = [
            calls for obj, calls in zip(acc.objectives, acc.update_calls)
            if obj <= target
        ]
        assert reached, "accelerated run never reached the plain-MM objective"
        assert reached[0] < plain.total_updates

    def test_init_pattern_of_another_size_is_rejected(self, model):
        with pytest.raises(DimensionMismatch):
            design_lmmse(self.BIG, model, self.R_BIG, init_v=naive_pattern(2, 3, model))

    def test_correlation_of_another_size_is_rejected(self, model):
        # R for M = 2 is a valid kron(A, P), but not (M+1)K square for M = 4
        with pytest.raises(DimensionMismatch):
            design_lmmse(self.BIG, model, R)

    def test_refresh_keeps_anchor_quantities(self, model, rng):
        state, x0, v0 = _state(rng, model)
        before = [np.copy(field) for field in state[:-1]]
        curvature = _training_terms(state).curvature
        x1 = update_training(_training_terms(state), CFG.power)
        terms = _pattern_terms(state, x1)
        # the terms are taken at x1, on the anchor's Xi0 and V0
        xi0 = _dense_anchor(x0.x, v0.v)
        xt1 = np.kron(np.eye(CFG.b), x1)
        vt0 = np.kron(v0.v, np.eye(CFG.k))
        w = xt1 @ xi0 @ xi0.conj().T @ xt1.conj().T
        c0 = terms.curvature / CFG.k * vt0.conj().T - w @ vt0.conj().T @ R + xt1 @ xi0 @ R
        dense = _block_traces(c0, CFG.b, CFG.k)
        assert np.max(np.abs(terms.c - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert all(np.array_equal(a, b) for a, b in zip(state[:-1], before))
        assert _training_terms(state).curvature == curvature

    def test_zero_noise_stops_after_one_step(self, model):
        # sigma^2 = 0 makes J = 0 at every full-rank S; a step from 0 to 0
        # has converged, where 0 < eps * 0 would never fire
        cfg = SystemConfig(k=2, m=8, l=4, sigma2=0.0)
        r = cascaded_correlation(CORR, 8, 2, 4)
        for accelerate in (False, True):
            _, _, trace = design_lmmse(cfg, model, r, accelerate=accelerate)
            assert trace.converged and trace.iterations == 1
            assert trace.objectives == [0.0, 0.0]

    @pytest.mark.parametrize("extra", [dict(tau=3), dict(b=10)], ids=["tau3", "b10"])
    def test_zero_noise_singular_factor_takes_pseudo_inverse_anchor(self, extra):
        # sigma^2 = 0 with tau > K (or B > M + 1) leaves X0^H P X0 (or
        # V0^H A V0) singular; the anchor drops its rounding-level directions
        # instead of dividing by them.  Instances drawn as the desk benchmark's.
        g = np.random.default_rng(20240328)
        r = cascaded_correlation(CORR, 8, 2, 4)
        for i in range(12):
            model = ReflectionModel(beta_min=g.uniform(0.0, 0.5), alpha=g.uniform(1.0, 3.0),
                                    delta=g.uniform(0.0, TWO_PI))
            power = np.full(2, 10.0 ** ((-5.0, 0.0, 5.0, 10.0)[i % 4] / 10.0))
            cfg = SystemConfig(k=2, m=8, l=4, sigma2=0.0, power=power, **extra)
            for accelerate in (False, True):
                _, _, trace = design_lmmse(cfg, model, r, accelerate=accelerate)
                assert trace.converged and trace.objectives[-1] == 0.0

    def test_round_descends_through_both_blocks(self, model, rng):
        # one full X-then-V round never increases the true objective
        for seed in range(5):
            g = np.random.default_rng(seed)
            v0 = random_feasible_pattern(g, self.BIG.m, self.BIG.b, model)
            x0 = random_training(g, self.BIG.k, self.BIG.tau, self.BIG.power)
            f = kronecker_factors(self.R_BIG, 2)
            j0 = mse_lmmse(v0.v, x0.x, f, 1.0, 4)
            state = _anchor(x0.x, v0.v, f, 1.0, 4)
            x1 = update_training(_training_terms(state), self.BIG.power)
            v1 = update_pattern(_pattern_terms(state, x1), model)
            j1 = mse_lmmse(v1, x1, f, 1.0, 4)
            assert j1 <= j0 + 1e-10

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known limit: from about 30 dB the plain-MM LMMSE design stops "
                              "after one round near its naive start (CHANGES.md FOUND)")
    def test_high_snr_design_is_not_worse_than_the_ls_pattern(self):
        # Desk profile at 30 dB.  The joint design must do at least as well as
        # the LS design's pattern with DFT training, scored by the same J.  It
        # stops after one round at J = 0.036908, against 0.027074.
        cfg = SystemConfig(k=2, m=8, l=4, power=np.full(2, 10.0 ** 3.0))
        r = cascaded_correlation(CORR, cfg.m, cfg.k, cfg.l)
        f = kronecker_factors(r, cfg.k)
        model = ReflectionModel()
        x, v, _ = design_lmmse(cfg, model, r, accelerate=False)
        v_ls, _ = design_ls(cfg, model, accelerate=False)
        x_dft = dft_training(cfg.k, cfg.tau, cfg.power)
        assert mse_lmmse(v.v, x.x, f, 1.0, cfg.l) <= mse_lmmse(v_ls.v, x_dft.x, f, 1.0, cfg.l)


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
        # lambda_max(P) and lambda_max(A) once per design, then per round the
        # K x K H of mu_X = lambda_max(T2) lambda_max(P) and the (M+1) x (M+1)
        # Kw of mu_V; no (B tau)-sized matrix such as Xi0 Xi0^H reaches an
        # eigen-solve
        big = self.BIG
        _, _, trace = design_lmmse(big, model, self.R_BIG, accelerate=False)
        assert trace.iterations > 1
        assert eig_calls[:2] == [(big.k,) * 2, (big.m + 1,) * 2]
        assert eig_calls[2:] == [(big.k,) * 2, (big.m + 1,) * 2] * trace.iterations
        assert (big.b * big.tau,) * 2 not in eig_calls

    # B > M + 1 and tau > K, so every eigen-solve's size names its space
    WIDE = SystemConfig(k=2, m=3, l=4, b=6, tau=3)

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = {"eigh": [], "eigvalsh": []}
        for name, original in ((name, getattr(np.linalg, name)) for name in calls):
            def counted(a, *args, _calls=calls[name], _original=original):
                _calls.append(a.shape)
                return _original(a, *args)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_plain_round_decomposes_its_iterate_once(self, model, solves):
        # After the square roots A^1/2 and P^1/2, one (M+1)- and one K-sized
        # eigh per iterate, the initial point included, give both its J and
        # the next round's anchor
        wide = self.WIDE
        r = cascaded_correlation(CORR, wide.m, wide.k, wide.l)
        _, _, trace = design_lmmse(wide, model, r, accelerate=False)
        assert trace.iterations > 1
        sizes = [(wide.m + 1,) * 2, (wide.k,) * 2]
        assert solves["eigh"] == sizes + sizes * (trace.iterations + 1)

    def test_plain_ls_round_decomposes_its_iterate_once(self, model, solves):
        # One checked eigh of V V^H per iterate gives Tr[(V V^H)^-1] and the
        # next surrogate; no eigvalsh scores the objective
        wide = self.WIDE
        _, trace = design_ls(wide, model, accelerate=False)
        assert trace.iterations > 1
        assert solves["eigh"] == [(wide.m + 1,) * 2] * (trace.iterations + 1)
        assert solves["eigvalsh"] == []

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

    def test_squarem_blocks_decompose_only_the_side_they_move(self, model, monkeypatch):
        # The training block moves X only, so it scores and anchors on V's
        # spectrum as it came in; the pattern block likewise keeps X's
        wide = self.WIDE
        events = []

        def marking(name, fn):
            def wrapped(*args):
                events.append(name)
                return fn(*args)
            return wrapped

        def side(half, t):
            events.append("A" if half.shape == (wide.m + 1,) * 2 else "P")
            return spectrum(half, t)

        spectrum = lmmse_design.lmmse_spectrum
        monkeypatch.setattr(lmmse_design, "lmmse_spectrum", side)
        for name in ("update_training", "update_pattern"):
            monkeypatch.setattr(lmmse_design, name, marking(name, getattr(lmmse_design, name)))
        r = cascaded_correlation(CORR, wide.m, wide.k, wide.l)
        _, _, trace = design_lmmse(wide, model, r, accelerate=True, max_iter=1)
        assert trace.iterations == 1
        first_train, first_pattern = events.index("update_training"), events.index("update_pattern")
        assert events[:first_train] == ["A", "P"]
        training = [e for e in events[first_train:first_pattern] if e in ("A", "P")]
        pattern = [e for e in events[first_pattern:] if e in ("A", "P")]
        assert training and set(training) == {"P"}
        assert pattern and set(pattern) == {"A"}
        assert events.count("update_training") == events.count("update_pattern") == 2


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


def _dense_rel(s0, r, l):
    """1e-12, or the dense Cholesky solve's forward-error scale at the anchor S0.

    Where the condition number kappa of S0^H R S0 + L I makes that coarser,
    a dense side errs by about kappa eps.
    """
    kappa = np.linalg.cond(s0.conj().T @ r @ s0 + l * np.eye(s0.shape[1]))
    return max(1e-12, 32 * np.finfo(float).eps * kappa)


def _block_hessian(r, gram, s_of, shape):
    """Dense Hessian of Tr[R S G S^H] in vec(Y), for S = s_of(Y) linear in a (shape) Y.

    Tr[R S G S^H] = vec(S)^H (G^T kron R) vec(S), with vec(S) = J vec(Y)
    and J's columns the images of Y's unit entries.
    """
    units = np.eye(int(np.prod(shape)), dtype=complex).reshape(-1, *shape, order="F")
    j = np.stack([s_of(e).reshape(-1, order="F") for e in units], axis=1)
    return j.conj().T @ np.kron(gram.T, r) @ j


@settings(max_examples=100, deadline=None)
@given(problem=factored_problems())
def test_block_curvatures_match_dense_hessians(problem):
    # mu_X / SAFETY_MARGIN is lambda_max of the Hessian of the first
    # majorization's quadratic Tr[R S Xi0 Xi0^H S^H] in vec(X) at V = V0, and
    # mu_V / SAFETY_MARGIN its lambda_max in vec(V) at the X the pattern step
    # sees (X0 in a SQUAREM update, the updated X1 in a plain round).
    cfg, r, model, seed = problem
    rng = np.random.default_rng(seed)
    f = kronecker_factors(r, cfg.k)
    v0 = random_feasible_pattern(rng, cfg.m, cfg.b, model).v
    x0, x1 = (random_training(rng, cfg.k, cfg.tau, cfg.power).x for _ in range(2))
    state = _anchor(x0, v0, f, 1.0, cfg.l)

    s0 = np.kron(v0, x0)
    xi0, rel = lmmse_filter(s0, r, 1.0, cfg.l), _dense_rel(s0, r, cfg.l)
    gram = xi0 @ xi0.conj().T
    mu_x = training_terms(state, numerics.largest_eigenvalue(f.p).value).curvature
    h_x = _block_hessian(r, gram, lambda x: np.kron(v0, x), x0.shape)
    assert mu_x / SAFETY_MARGIN == pytest.approx(np.linalg.eigvalsh(h_x)[-1], rel=rel)
    for x in (x0, x1):
        mu_v = refresh_pattern_terms(state, x, numerics.largest_eigenvalue(f.a).value).curvature
        h_v = _block_hessian(r, gram, lambda v: np.kron(v, x), v0.shape)
        assert mu_v / SAFETY_MARGIN == pytest.approx(np.linalg.eigvalsh(h_v)[-1], rel=rel)


def _dense_step_terms(r, xi0, v0, x0, x1):
    """The b_k at (X0, V0) and the C0 block traces at X1 from a dense anchor Xi0.

    The curvatures are those of the dense block Hessians.  The diagonal blocks
    of mu_X / B Xt0^H sum to mu_X X0^H; the block traces of mu_V / K Vt0^H are
    mu_V conj(V0).
    """
    (k, tau), b = x0.shape, v0.shape[1]
    vt0, xt0, xt1 = np.kron(v0, np.eye(k)), np.kron(np.eye(b), x0), np.kron(np.eye(b), x1)
    gram, m_v = xi0 @ xi0.conj().T, vt0.conj().T @ r @ vt0
    h_x = _block_hessian(r, gram, lambda x: np.kron(v0, x), x0.shape)
    mu_x = SAFETY_MARGIN * np.linalg.eigvalsh(h_x)[-1]
    b0 = mu_x / b * xt0.conj().T - gram @ xt0.conj().T @ m_v + xi0 @ r @ vt0
    w = xt1 @ gram @ xt1.conj().T
    h_v = _block_hessian(r, gram, lambda v: np.kron(v, x1), v0.shape)
    mu_v = SAFETY_MARGIN * np.linalg.eigvalsh(h_v)[-1]
    c0 = mu_v / k * vt0.conj().T - w @ vt0.conj().T @ r + xt1 @ xi0 @ r
    return np.conj(np.einsum("atak->tk", b0.reshape(b, tau, b, k))), _block_traces(c0, b, k)


@settings(max_examples=100, deadline=None)
@given(problem=factored_problems())
def test_factored_terms_match_dense(problem):
    # The step terms, the factor spectra and the MSE from the Kronecker
    # factors against the dense (M+1)K-sized forms, with the dense anchor
    # built from the inputs alone.
    cfg, r, model, seed = problem
    rng = np.random.default_rng(seed)
    k, b, tau, l = cfg.k, cfg.b, cfg.tau, cfg.l
    v0 = random_feasible_pattern(rng, cfg.m, b, model)
    x0, x1 = (random_training(rng, k, tau, cfg.power) for _ in range(2))
    f = kronecker_factors(r, k)
    p_max, a_max = (numerics.largest_eigenvalue(g).value for g in (f.p, f.a))
    state = _anchor(x0.x, v0.v, f, 1.0, l)
    train, pattern = training_terms(state, p_max), refresh_pattern_terms(state, x1.x, a_max)

    s0 = np.kron(v0.v, x0.x)
    b_sums, c = _dense_step_terms(r, lmmse_filter(s0, r, 1.0, l), v0.v, x0.x, x1.x)
    rel = _dense_rel(s0, r, l)
    _assert_close(train.b_sums, b_sums, rel)
    _assert_close(pattern.c, c, rel)
    assert a_max * p_max == pytest.approx(np.linalg.eigvalsh(r)[-1], rel=1e-12)
    if cfg.power[0] <= 100.0:
        # above 20 dB the dense Tr R - explained side loses digits itself
        dense = np.real(np.trace(r)) + lmmse_objective(build_S(v0, x1), r, 1.0, l)
        assert mse_lmmse(v0.v, x1.x, f, 1.0, l) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("extra", [dict(tau=3), dict(b=6), dict(tau=4, b=7)],
                         ids=["tau3", "b6", "tau4-b7"])
def test_zero_noise_factored_terms_match_pseudo_inverse(extra, model):
    # At sigma^2 = 0 a singular factor (tau > K, or B > M + 1) leaves S0^H R S0
    # singular; the factored anchor keeps the same directions as the dense
    # pseudo-inverse Xi0 = (S0^H R S0)^+ S0^H R, through its B x tau mask.
    cfg = SystemConfig(k=2, m=3, l=4, sigma2=0.0, **extra)
    r = cascaded_correlation(CORR, cfg.m, cfg.k, cfg.l)
    rng = np.random.default_rng(20240328)
    f = kronecker_factors(r, cfg.k)
    v0 = random_feasible_pattern(rng, cfg.m, cfg.b, model).v
    x0, x1 = (random_training(rng, cfg.k, cfg.tau, cfg.power).x for _ in range(2))
    state = _anchor(x0, v0, f, 0.0, cfg.l)
    train = training_terms(state, numerics.largest_eigenvalue(f.p).value)
    pattern = refresh_pattern_terms(state, x1, numerics.largest_eigenvalue(f.a).value)

    s0 = np.kron(v0, x0)
    gain = s0.conj().T @ r
    xi0 = np.linalg.pinv(gain @ s0, rcond=1e-10, hermitian=True) @ gain
    b_sums, c = _dense_step_terms(r, xi0, v0, x0, x1)
    _assert_close(train.b_sums, b_sums, 1e-9)
    _assert_close(pattern.c, c, 1e-9)


@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_all_zero_pattern_anchors_zero_terms(sigma2):
    # V0 = 0 has lam1 = 0 exactly, where U1's lam1^-1/2 would divide by zero;
    # S0 = 0 makes Xi0 = 0, so the curvatures and the linear terms are 0.
    cfg = SystemConfig(k=2, m=3, l=4, b=6, tau=3, sigma2=sigma2)
    f = kronecker_factors(cascaded_correlation(CORR, cfg.m, cfg.k, cfg.l), cfg.k)
    v0 = np.zeros((cfg.m + 1, cfg.b), dtype=complex)
    x0 = random_training(np.random.default_rng(7), cfg.k, cfg.tau, cfg.power).x
    state = _anchor(x0, v0, f, sigma2, cfg.l)
    assert not np.any(state.u1) and not np.any(state.f1)
    train = training_terms(state, numerics.largest_eigenvalue(f.p).value)
    pattern = refresh_pattern_terms(state, x0, numerics.largest_eigenvalue(f.a).value)
    assert train.curvature == 0.0 and pattern.curvature == 0.0
    assert not np.any(train.b_sums) and not np.any(pattern.c)


def _feasible_points(rng, cfg, model, v0, x0, count):
    """Random feasible (V, X), half of them drawn afresh, half near (V0, X0).

    A point near the anchor moves V0's phases and X0's rows by 10^-(i % 7);
    a row longer than its budget is scaled back onto it.
    """
    for i in range(count):
        if i % 2 == 0:
            yield (random_feasible_pattern(rng, cfg.m, cfg.b, model).v,
                   random_training(rng, cfg.k, cfg.tau, cfg.power).x)
            continue
        scale = 10.0 ** -(i % 7)
        v = v0.copy()
        v[:-1] = reflection_coefficient(
            np.angle(v0[:-1]) + rng.uniform(-scale, scale, v0[:-1].shape), model)
        x = x0 + scale * np.sqrt(cfg.power)[:, None] * (
            rng.standard_normal(x0.shape) + 1j * rng.standard_normal(x0.shape))
        norms = np.linalg.norm(x, axis=1)
        yield v, x * np.minimum(1.0, np.sqrt(cfg.power) / norms)[:, None]


@settings(max_examples=40, deadline=None)
@given(problem=factored_problems())
def test_majorizations_dominate_and_touch(problem):
    # At a random anchor (X0, V0): g(S; S0) >= g(S), tangent at S0; the
    # training-block bound >= g(S; S0) along X with V = V0; the pattern-block
    # bound >= g(S; S0) along V at the X the step sees (X0 in a SQUAREM
    # update, the updated X1 in a plain round).  Each block bound is the
    # quadratic its step minimizes, mu_X ||X||^2 - 2 Re sum_k b_k^H x_k
    # or mu_V ||V||^2 - 2 Re sum c[m, n] v[m, n], plus the constant that
    # makes it touch g(S; S0) at the anchor.
    cfg, r, model, seed = problem
    rng = np.random.default_rng(seed)
    k, b, tau, l = cfg.k, cfg.b, cfg.tau, cfg.l
    f = kronecker_factors(r, k)
    p_max, a_max = (numerics.largest_eigenvalue(g).value for g in (f.p, f.a))
    v0 = random_feasible_pattern(rng, cfg.m, b, model).v
    x0, x1 = (random_training(rng, k, tau, cfg.power).x for _ in range(2))
    state = _anchor(x0, v0, f, 1.0, l)
    rel = _dense_rel(np.kron(v0, x0), r, l)
    trace_r = float(np.real(np.trace(r)))

    def sur(v, x):
        return lmmse_surrogate_value(x0, v0, r, np.kron(v, x), 1.0, l)

    def g(v, x):
        return lmmse_objective(np.kron(v, x), r, 1.0, l)

    assert abs(sur(v0, x0) - g(v0, x0)) <= rel * trace_r
    for v, x in _feasible_points(rng, cfg, model, v0, x0, 20):
        upper, true = sur(v, x), g(v, x)
        assert upper >= true - rel * (abs(upper) + abs(true) + trace_r)

    train = training_terms(state, p_max)

    def train_bound(x):
        quad = train.curvature * float(np.sum(np.abs(x) ** 2))
        lin = 2.0 * float(np.real(np.sum(train.b_sums.T.conj() * x)))
        return quad - lin, abs(quad) + abs(lin)

    touch = sur(v0, x0) - train_bound(x0)[0]
    for _, x in _feasible_points(rng, cfg, model, v0, x0, 20):
        (bound, size), upper = train_bound(x), sur(v0, x)
        assert bound + touch >= upper - rel * (size + abs(touch) + abs(upper) + trace_r)

    for x_seen in (x0, x1):
        pattern = refresh_pattern_terms(state, x_seen, a_max)

        def pattern_bound(v):
            quad = pattern.curvature * float(np.sum(np.abs(v) ** 2))
            lin = 2.0 * float(np.real(np.sum(pattern.c * v)))
            return quad - lin, abs(quad) + abs(lin)

        touch = sur(v0, x_seen) - pattern_bound(v0)[0]
        for v, _ in _feasible_points(rng, cfg, model, v0, x0, 20):
            (bound, size), upper = pattern_bound(v), sur(v, x_seen)
            assert bound + touch >= upper - rel * (size + abs(touch) + abs(upper) + trace_r)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(2, 3), n_a=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_kronecker_factors_reject_dense_hpd(k, n_a, seed):
    r = random_hpd(np.random.default_rng(seed), n_a * k)
    with pytest.raises(DimensionMismatch):
        kronecker_factors(r, k)
