"""Tests for the effective training matrix, estimators and analytic MSEs."""

import numpy as np
import pytest

from conftest import random_feasible_pattern, random_hpd, random_training
from risce.channel import (
    CorrelationSpec,
    cascaded_channel,
    cascaded_correlation,
    sample_channels,
)
from risce.errors import DimensionMismatch, InvalidDims, SingularGram
from risce.ls_design import dft_training
from risce.baselines import naive_pattern
from risce.system import (
    ReflectionPattern,
    TrainingMatrix,
    build_S,
    estimate_lmmse,
    estimate_ls,
    lmmse_objective,
    mse_lmmse,
    mse_ls,
    nmse,
    simulate_reception,
)
from risce.types import SystemConfig


class TestContainers:
    def test_pattern_requires_ones_row(self):
        with pytest.raises(DimensionMismatch):
            ReflectionPattern(v=np.zeros((3, 4), dtype=complex))

    @pytest.mark.parametrize("params", [
        dict(power=[np.nan, 1.0]), dict(power=[np.inf, 1.0]),
        dict(sigma2=np.nan), dict(sigma2=np.inf),
    ])
    def test_config_rejects_non_finite(self, params):
        with pytest.raises(InvalidDims):
            SystemConfig(k=2, m=3, l=2, **params)

    def test_training_power_budget_enforced(self):
        with pytest.raises(DimensionMismatch):
            TrainingMatrix(x=2.0 * np.ones((1, 2)), power=np.array([1.0]))


class TestBuildS:
    def test_scalar_unfold(self):
        v = ReflectionPattern(v=np.array([[0.5j], [1.0]]))
        x = TrainingMatrix(x=np.array([[0.7]]), power=np.array([1.0]))
        s = build_S(v, x)
        assert np.allclose(s, [[0.5j * 0.7], [0.7]])

    def test_all_ones_pattern_stacks_identities(self):
        v = ReflectionPattern(v=np.ones((3, 4), dtype=complex))
        x = TrainingMatrix(x=np.eye(2), power=np.ones(2))
        s = build_S(v, x)
        assert s.shape == (6, 8)
        for i in range(3):
            for b in range(4):
                assert np.allclose(s[2 * i : 2 * i + 2, 2 * b : 2 * b + 2], np.eye(2))

    def test_matches_subframe_loop(self, model, rng):
        v = random_feasible_pattern(rng, m=3, b=5, model=model)
        x = random_training(rng, k=2, tau=3, power=[1.0, 2.0])
        s = build_S(v, x)
        # per-subframe construction: column block b is (phi(b) kron I_K) X
        for b in range(5):
            phi = v.v[:, b : b + 1]
            expected = np.kron(phi, np.eye(2)) @ x.x
            assert np.allclose(s[:, 3 * b : 3 * (b + 1)], expected)

    def test_factorized_form(self, model, rng):
        v = random_feasible_pattern(rng, m=2, b=4, model=model)
        x = random_training(rng, k=2, tau=2, power=[1.0, 1.0])
        direct = np.kron(v.v, np.eye(2)) @ np.kron(np.eye(4), x.x)
        assert np.allclose(build_S(v, x), direct)


class TestSimulateReception:
    def test_noiseless(self, rng):
        gamma = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        s = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        assert np.array_equal(simulate_reception(gamma, s, 0.0, 0), gamma @ s)

    def test_noise_variance(self):
        gamma = np.zeros((10, 4))
        s = np.zeros((4, 10_000))
        y = simulate_reception(gamma, s, 0.7, 3)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.7, rel=0.03)

    def test_deterministic(self, rng):
        gamma = rng.standard_normal((2, 4)).astype(complex)
        s = rng.standard_normal((4, 4)).astype(complex)
        assert np.array_equal(
            simulate_reception(gamma, s, 1.0, 11), simulate_reception(gamma, s, 1.0, 11)
        )


class TestEstimators:
    def _setup(self, rng, sigma2=1.0, seed=0):
        model_cfg = SystemConfig(k=2, m=3, l=4, b=4, tau=2, sigma2=sigma2)
        corr = CorrelationSpec()
        from risce.phase_model import ReflectionModel

        v = naive_pattern(3, 4, ReflectionModel())
        x = dft_training(2, 2, model_cfg.power)
        s = build_S(v, x)
        gamma = cascaded_channel(sample_channels(seed, model_cfg, corr))
        r = cascaded_correlation(corr, 3, 2, 4)
        return model_cfg, s, gamma, r

    def test_ls_noiseless_recovery(self, rng):
        cfg, s, gamma, _ = self._setup(rng)
        y = gamma @ s
        err = np.linalg.norm(estimate_ls(y, s) - gamma) / np.linalg.norm(gamma)
        assert err < 1e-10

    def test_ls_identity_training(self, rng):
        y = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.allclose(estimate_ls(y, np.eye(5)), y)

    def test_ls_singular_gram(self):
        s = np.ones((3, 4), dtype=complex)  # rank one
        with pytest.raises(SingularGram):
            estimate_ls(np.ones((2, 4)), s)

    def test_lmmse_zero_prior(self, rng):
        cfg, s, gamma, r = self._setup(rng)
        y = simulate_reception(gamma, s, 1.0, 5)
        est = estimate_lmmse(y, s, np.zeros_like(r), 1.0, 4)
        assert np.allclose(est, 0.0)

    def test_lmmse_low_noise_limit(self, rng):
        cfg, s, gamma, r = self._setup(rng)
        y = gamma @ s
        est = estimate_lmmse(y, s, r, 1e-10, 4)
        assert np.linalg.norm(est - gamma) / np.linalg.norm(gamma) < 1e-4

    def test_ls_monte_carlo_mse(self, rng):
        cfg, s, gamma, _ = self._setup(rng)
        analytic = mse_ls(s, 1.0, 4)
        errs = [
            np.sum(np.abs(estimate_ls(simulate_reception(gamma, s, 1.0, t), s) - gamma) ** 2)
            for t in range(2000)
        ]
        assert np.mean(errs) == pytest.approx(analytic, rel=0.05)

    def test_lmmse_monte_carlo_mse(self, rng):
        cfg, s, _, r = self._setup(rng)
        corr = CorrelationSpec()
        analytic = mse_lmmse(s, r, 1.0, 4)
        errs = []
        for t in range(2000):
            gamma = cascaded_channel(sample_channels(np.random.SeedSequence([9, t]), cfg, corr))
            y = simulate_reception(gamma, s, 1.0, np.random.SeedSequence([10, t]))
            errs.append(np.sum(np.abs(estimate_lmmse(y, s, r, 1.0, 4) - gamma) ** 2))
        assert np.mean(errs) == pytest.approx(analytic, rel=0.05)


class TestAnalyticMse:
    def test_ls_orthogonal_case(self):
        # V V^H = (M+1) I and X X^H = P I give sigma^2 L K / P.
        from risce.phase_model import ideal_model

        m, b, k, p = 3, 4, 2, 2.0
        v = naive_pattern(m, b, ideal_model())
        x = dft_training(k, k, np.full(k, p))
        s = build_S(v, x)
        # Tr[(VVH)^-1] = (M+1)/B and Tr[(XXH)^-1] = K/P
        assert mse_ls(s, 1.0, 4) == pytest.approx(4 * ((m + 1) / b) * (k / p), rel=1e-10)

    def test_ls_scaling_homogeneity(self, rng):
        s = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        assert mse_ls(2.0 * s, 1.0, 3) == pytest.approx(mse_ls(s, 1.0, 3) / 4.0, rel=1e-12)

    def test_ls_matches_explicit_inverse(self, rng):
        s = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        oracle = 2.0 * 4 * np.real(np.trace(np.linalg.inv(s @ s.conj().T)))
        assert mse_ls(s, 2.0, 4) == pytest.approx(oracle, rel=1e-10)

    def test_lmmse_no_information(self, rng):
        r = random_hpd(rng, 6)
        s = np.zeros((6, 6))
        assert mse_lmmse(s, r, 1.0, 4) == pytest.approx(np.real(np.trace(r)), rel=1e-12)

    def test_lmmse_closed_form_orthogonal(self):
        # R = L I, V V^H = (M+1) I, X X^H = P I
        from risce.phase_model import ideal_model

        m, k, l, p, sigma2 = 3, 2, 4, 2.0, 1.0
        v = naive_pattern(m, m + 1, ideal_model())
        x = dft_training(k, k, np.full(k, p))
        s = build_S(v, x)
        r = l * np.eye((m + 1) * k)
        expected = (m + 1) * k * l / (1.0 + (m + 1) * p / sigma2)
        assert mse_lmmse(s, r, sigma2, l) == pytest.approx(expected, rel=1e-10)

    def test_lmmse_never_worse_than_ls(self, model, rng):
        for _ in range(10):
            v = random_feasible_pattern(rng, 3, 4, model)
            x = random_training(rng, 2, 2, [1.0, 1.0])
            s = build_S(v, x)
            r = cascaded_correlation(CorrelationSpec(), 3, 2, 4)
            assert mse_lmmse(s, r, 1.0, 4) <= mse_ls(s, 1.0, 4) + 1e-9

    def test_inversion_lemma_equivalence(self, rng):
        # Eq-15-style direct form vs the implemented no-R-inverse form.
        for _ in range(10):
            r = random_hpd(rng, 6)
            s = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
            direct = np.real(np.trace(np.linalg.inv(
                np.linalg.inv(r) + s @ s.conj().T / (0.8 * 3)
            )))
            assert mse_lmmse(s, r, 0.8, 3) == pytest.approx(direct, rel=1e-8)

    def test_lmmse_objective_identity(self, rng):
        r = random_hpd(rng, 6)
        s = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        j = mse_lmmse(s, r, 1.0, 4)
        g = lmmse_objective(s, r, 1.0, 4)
        assert np.real(np.trace(r)) + g == pytest.approx(j, rel=1e-12)
        assert lmmse_objective(np.zeros((6, 7)), r, 1.0, 4) == pytest.approx(0.0, abs=1e-12)

    def test_trace_bound_for_gap_argument(self, rng):
        # Tr[(I + A)^{-1}] <= N a / (N + a) with a = Tr[A^{-1}]
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = random_hpd(rng, n)
            inv_trace = float(np.real(np.trace(np.linalg.inv(a))))
            lhs = float(np.real(np.trace(np.linalg.inv(np.eye(n) + a))))
            assert lhs <= n * inv_trace / (n + inv_trace) + 1e-10


class TestKroneckerIdentity:
    def test_trace_factorizes(self, model, rng):
        for _ in range(25):
            v = random_feasible_pattern(rng, 4, 6, model)
            x = random_training(rng, 2, 3, [1.0, 2.0])
            s = build_S(v, x)
            lhs = np.real(np.trace(np.linalg.inv(s @ s.conj().T)))
            rhs = np.real(np.trace(np.linalg.inv(v.v @ v.v.conj().T))) * np.real(
                np.trace(np.linalg.inv(x.x @ x.x.conj().T))
            )
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestNmse:
    def test_identity_scalings(self):
        assert nmse(4 * 2 * 9, 4, 2, 8) == pytest.approx(1.0)
        assert nmse(0.0, 4, 2, 8) == 0.0
        assert nmse(2.0, 4, 2, 8) == pytest.approx(2 * nmse(1.0, 4, 2, 8))
