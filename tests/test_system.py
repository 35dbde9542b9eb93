"""Tests for the effective training matrix, estimators and analytic MSEs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    lmmse_filter,
    lmmse_filter_push_through,
    lmmse_objective,
    ls_filter,
    ls_mse,
    random_factors,
    random_feasible_pattern,
    random_hpd,
    random_training,
)
from risce.channel import (
    CorrelationSpec,
    cascaded_channel,
    cascaded_correlation,
    grouped_cascaded_correlation,
    kronecker_factors,
    sample_channels,
)
from risce.errors import DimensionMismatch, InvalidDims, SingularGram
from risce.numerics import CONDITION_LIMIT, trace_of_inverse
from risce.baselines import dft_training, group_reduce, naive_pattern
from risce.system import (
    ReflectionPattern,
    TrainingMatrix,
    build_S,
    estimate_lmmse,
    estimate_ls,
    mse_lmmse,
    mse_ls,
    nmse,
    simulate_reception,
    _kron,
)
from risce.types import SystemConfig


def _ideal_naive_dft_mse(corr, indicator, k, l, power):
    """sum_ij alpha_i p_j / (1 + B P alpha_i p_j / L) at sigma^2 = 1 (test oracle)."""
    psi_ris = corr.psi_ris ** np.abs(np.subtract.outer(np.arange(indicator.shape[0]),
                                                       np.arange(indicator.shape[0])))
    n = indicator.shape[1] + 1
    a = np.eye(n)
    a[:-1, :-1] = indicator.T @ (psi_ris * psi_ris) @ indicator
    psi_ue = corr.psi_ue ** np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    alpha, p = np.linalg.eigvalsh(a), l * np.linalg.eigvalsh(psi_ue)
    prod = np.outer(alpha, p)
    return float(np.sum(prod / (1.0 + n * power * prod / l)))


class TestContainers:
    def test_pattern_requires_ones_row(self):
        with pytest.raises(DimensionMismatch):
            ReflectionPattern(v=np.zeros((3, 4), dtype=complex))

    @pytest.mark.parametrize("last, ok", [
        (1.0 + 1e-13, True), (1.0 - 1e-13j, True),
        (1.0 + 9e-6, False), (1.0 + 2e-12, False), (np.nan, False), (complex(1.0, np.nan), False),
    ])
    def test_pattern_ones_row_tolerance_is_absolute(self, last, ok):
        # max |v[-1] - 1| <= 1e-12; a relative tolerance would accept 1 + 9e-6
        v = np.ones((3, 4), dtype=complex)
        v[-1, 2] = last
        if ok:
            ReflectionPattern(v=v)
        else:
            with pytest.raises(DimensionMismatch):
                ReflectionPattern(v=v)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.5, -np.inf), complex(np.nan, 0.5)])
    def test_pattern_rejects_non_finite(self, entry):
        # A non-finite reflection entry fails here, not later as SingularGram.
        v = np.ones((3, 4), dtype=complex)
        v[1, 2] = entry
        with pytest.raises(DimensionMismatch, match="finite"):
            ReflectionPattern(v=v)

    @pytest.mark.parametrize("x, power", [
        ([[np.nan, 1.0]], [1.0]), ([[0.5, complex(0.0, np.inf)]], [1.0]),
        ([[0.5, 0.5]], [np.nan]), ([[0.5, 0.5]], [np.inf]),
    ])
    def test_training_rejects_non_finite(self, x, power):
        # A NaN budget would pass the power check, whose comparisons are all false.
        with pytest.raises(DimensionMismatch, match="finite"):
            TrainingMatrix(x=np.array(x), power=np.array(power))

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

    @pytest.mark.parametrize("p", [1.0, 1e8])
    def test_training_power_tolerance_is_relative(self, p):
        # a row on its budget passes to rounding at every scale; a 1e-6
        # relative excess fails at every scale
        row = np.sqrt(p) * np.array([[3.0, 4.0j]]) / 5.0
        TrainingMatrix(x=row * (1.0 + 1e-15), power=np.array([p]))
        with pytest.raises(DimensionMismatch):
            TrainingMatrix(x=row * np.sqrt(1.0 + 1e-6), power=np.array([p]))


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


@pytest.mark.parametrize("a_shape, b_shape", [
    ((9, 9), (2, 2)),     # desk S = kron(V, X)
    ((21, 21), (4, 4)),   # paper S
    ((10, 9), (3, 2)),    # desk kron(V^H A, X^H P) at B = 10, tau = 3
])
def test_kron_has_the_bits_of_np_kron(a_shape, b_shape, rng):
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape)
    for left, right in ((a, b), (a.real, b), (a, b.real)):
        got = _kron(left, right)
        assert got.dtype == np.kron(left, right).dtype
        assert np.array_equal(got, np.kron(left, right))


class TestSimulateReception:
    def test_noiseless(self, rng):
        gamma = rng.standard_normal((1, 3, 8)) + 1j * rng.standard_normal((1, 3, 8))
        s = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        assert np.array_equal(simulate_reception(gamma, s, 0.0, [0]), gamma @ s)

    def test_noise_variance(self):
        gamma = np.zeros((1, 10, 4))
        s = np.zeros((4, 10_000))
        y = simulate_reception(gamma, s, 0.7, [3])
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.7, rel=0.03)

    def test_deterministic(self, rng):
        gamma = rng.standard_normal((1, 2, 4)).astype(complex)
        s = rng.standard_normal((4, 4)).astype(complex)
        assert np.array_equal(
            simulate_reception(gamma, s, 1.0, [11]), simulate_reception(gamma, s, 1.0, [11])
        )

    @settings(max_examples=40, deadline=None)
    @given(l=st.integers(1, 5), n=st.integers(1, 9), cols=st.integers(1, 9),
           trials=st.integers(1, 12), data=st.data(), entropy=st.integers(0, 2**32 - 1))
    def test_seed_list_receives_each_trial_with_its_own_noise(self, l, n, cols, trials,
                                                              data, entropy):
        # A block's rows are those of the same seeds split into two blocks,
        # and those of one-trial blocks, bit for bit.  Gamma and S hold small
        # Gaussian integers, so Gamma S is exact however BLAS blocks the
        # (T L) x n product, and the rows compare each trial's noise.
        rng = np.random.default_rng(entropy)
        gamma = rng.integers(-4, 5, (trials, l, n)) + 1j * rng.integers(-4, 5, (trials, l, n))
        s = rng.integers(-4, 5, (n, cols)) + 1j * rng.integers(-4, 5, (n, cols))
        seeds = [np.random.SeedSequence([entropy, t, 1]) for t in range(trials)]
        split = data.draw(st.integers(0, trials), label="split")
        y = simulate_reception(gamma, s, 0.7, seeds)
        assert y.shape == (trials, l, cols)
        head = simulate_reception(gamma[:split], s, 0.7, seeds[:split])
        tail = simulate_reception(gamma[split:], s, 0.7, seeds[split:])
        assert np.array_equal(y, np.concatenate([head, tail]))
        for t, seed in enumerate(seeds):
            assert np.array_equal(y[t], simulate_reception(gamma[t:t + 1], s, 0.7, [seed])[0])

    def test_seed_count_must_match_the_trials(self, rng):
        gamma = np.zeros((3, 2, 4), dtype=complex)
        s = np.eye(4)
        seeds = [np.random.SeedSequence([t]) for t in range(2)]
        with pytest.raises(DimensionMismatch):
            simulate_reception(gamma, s, 1.0, seeds)
        with pytest.raises(DimensionMismatch):   # one trial without the trial axis
            simulate_reception(gamma[0], s, 1.0, seeds[:1])

    @pytest.mark.parametrize("seed", [0, np.int64(3), np.random.SeedSequence([4, 1])])
    def test_bare_seed_is_rejected(self, seed):
        # One seed is not a block of trials; nothing reads it as one.
        with pytest.raises(TypeError):
            simulate_reception(np.zeros((1, 2, 4), dtype=complex), np.eye(4), 1.0, seed)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_bad_noise_variance_rejected(self, rng, sigma2):
        gamma = rng.standard_normal((1, 2, 4)).astype(complex)
        s = rng.standard_normal((4, 4)).astype(complex)
        with pytest.raises(ValueError, match="noise variance"):
            simulate_reception(gamma, s, sigma2, [0])


class TestEstimators:
    def _setup(self, rng, sigma2=1.0, seed=0):
        model_cfg = SystemConfig(k=2, m=3, l=4, b=4, tau=2, sigma2=sigma2)
        corr = CorrelationSpec()
        from risce.phase_model import ReflectionModel

        v = naive_pattern(3, 4, ReflectionModel())
        x = dft_training(2, 2, model_cfg.power)
        gamma = cascaded_channel(sample_channels([seed], model_cfg, corr))[0]
        f = kronecker_factors(cascaded_correlation(corr, 3, 2, 4), 2)
        return model_cfg, v.v, x.x, gamma, f

    def test_ls_noiseless_recovery(self, rng):
        cfg, v, x, gamma, _ = self._setup(rng)
        y = gamma @ np.kron(v, x)
        err = np.linalg.norm(estimate_ls(y, (v, x)) - gamma) / np.linalg.norm(gamma)
        assert err < 1e-10

    def test_ls_identity_training(self, rng):
        y = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.allclose(estimate_ls(y, (np.eye(5), np.eye(1))), y)

    def test_ls_singular_gram(self):
        v = np.ones((3, 4), dtype=complex)  # rank one
        with pytest.raises(SingularGram):
            estimate_ls(np.ones((2, 4)), (v, np.eye(1)))

    def test_lmmse_zero_prior(self, rng):
        cfg, v, x, gamma, f = self._setup(rng)
        y = simulate_reception(gamma[None], np.kron(v, x), 1.0, [5])[0]
        zero = f._replace(a=np.zeros_like(f.a), a_half=np.zeros_like(f.a_half))
        est = estimate_lmmse(y, (v, x), zero, 1.0, 4)
        assert np.allclose(est, 0.0)

    def test_lmmse_low_noise_limit(self, rng):
        cfg, v, x, gamma, f = self._setup(rng)
        y = gamma @ np.kron(v, x)
        est = estimate_lmmse(y, (v, x), f, 1e-10, 4)
        assert np.linalg.norm(est - gamma) / np.linalg.norm(gamma) < 1e-4

    def test_ls_monte_carlo_mse(self, rng):
        cfg, v, x, gamma, _ = self._setup(rng)
        s = np.kron(v, x)
        analytic = mse_ls(v, x, 1.0, 4)
        errs = [
            np.sum(np.abs(estimate_ls(simulate_reception(gamma[None], s, 1.0, [t])[0], (v, x))
                          - gamma) ** 2)
            for t in range(2000)
        ]
        assert np.mean(errs) == pytest.approx(analytic, rel=0.05)

    def test_lmmse_monte_carlo_mse(self, rng):
        cfg, v, x, _, f = self._setup(rng)
        corr = CorrelationSpec()
        s = np.kron(v, x)
        analytic = mse_lmmse(v, x, f, 1.0, 4)
        errs = []
        for t in range(2000):
            gamma = cascaded_channel(sample_channels([np.random.SeedSequence([9, t])], cfg, corr))
            [y] = simulate_reception(gamma, s, 1.0, [np.random.SeedSequence([10, t])])
            errs.append(np.sum(np.abs(estimate_lmmse(y, (v, x), f, 1.0, 4) - gamma[0]) ** 2))
        assert np.mean(errs) == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("l", [4, 6])   # 6 = tau B: a stack the old 2-D form mixed up
    def test_estimates_broadcast_over_a_trial_stack(self, rng, l):
        v, x = rng.standard_normal((3, 3)) + 1j, rng.standard_normal((2, 2)) + 0.5j
        f = random_factors(rng, 3, 2)
        y = rng.standard_normal((3, l, 6)) + 1j * rng.standard_normal((3, l, 6))
        for estimate in (lambda y: estimate_ls(y, (v, x)),
                         lambda y: estimate_lmmse(y, (v, x), f, 0.7, l)):
            stacked = estimate(y)
            per_trial = np.stack([estimate(trial) for trial in y])
            assert stacked.shape == per_trial.shape == (3, l, 6)
            assert np.linalg.norm(stacked - per_trial) <= 1e-13 * np.linalg.norm(per_trial)


def _conditioned_factors(rng, rows, cols):
    """rows x cols with singular values in [0.5, 2]: a Gram with condition number at most 16."""
    n = min(rows, cols)
    q1, _ = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))
    return (q1[:, :n] * rng.uniform(0.5, 2.0, n)) @ q2[:n]


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 4), extra_b=st.integers(0, 2),
       extra_tau=st.integers(0, 2), rows=st.integers(1, 6), sigma2=st.floats(1e-3, 10.0),
       l=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_factored_forms_match_the_dense_oracles(k, m, extra_b, extra_tau, rows, sigma2, l, seed):
    # mse_ls, estimate_ls and estimate_lmmse read (V, X) and R's factors; the
    # oracles form S = kron(V, X), S S^H and R, and solve at (M+1)K size.
    rng = np.random.default_rng(seed)
    v = _conditioned_factors(rng, m + 1, m + 1 + extra_b)
    x = _conditioned_factors(rng, k, k + extra_tau)
    f = random_factors(rng, m + 1, k)
    s = np.kron(v, x)
    y = rng.standard_normal((rows, s.shape[1])) + 1j * rng.standard_normal((rows, s.shape[1]))
    assert mse_ls(v, x, sigma2, l) == pytest.approx(ls_mse(s, sigma2, l), rel=1e-10)
    for got, w in ((estimate_ls(y, (v, x)), ls_filter(s)),
                   (estimate_lmmse(y, (v, x), f, sigma2, l),
                    lmmse_filter(s, np.kron(f.a, f.p), sigma2, l))):
        assert np.linalg.norm(got - y @ w) <= 1e-10 * np.linalg.norm(y @ w)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 4), b=st.integers(1, 5), tau=st.integers(1, 3),
       rows=st.integers(1, 6), sigma2=st.floats(1e-3, 10.0), l=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_estimate_lmmse_matches_dense_solve(k, m, b, tau, rows, sigma2, l, seed):
    # Y (S^H R S + sigma^2 L I)^-1 S^H R by a general dense solve (no
    # Cholesky); both filters err by about kappa eps of the solved matrix.
    rng = np.random.default_rng(seed)
    n, cols = (m + 1) * k, b * tau
    v = rng.standard_normal((m + 1, b)) + 1j * rng.standard_normal((m + 1, b))
    x = rng.standard_normal((k, tau)) + 1j * rng.standard_normal((k, tau))
    s = np.kron(v, x)
    f = random_factors(rng, m + 1, k)
    r = np.kron(f.a, f.p)
    y = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    a = s.conj().T @ r @ s + sigma2 * l * np.eye(cols)
    w = np.linalg.solve(a, s.conj().T @ r)
    tol = max(1e-12, 32 * np.finfo(float).eps * np.linalg.cond(a))
    got = estimate_lmmse(y, (v, x), f, sigma2, l)
    assert np.linalg.norm(got - y @ w) <= tol * np.linalg.norm(y) * np.linalg.norm(w)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 4), extra_b=st.integers(0, 2),
       extra_tau=st.integers(0, 2), log_power=st.floats(0.0, 30.0), l=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_estimate_lmmse_keeps_its_digits_at_high_snr(k, m, extra_b, extra_tau, log_power, l,
                                                     seed):
    # With B > M+1 or tau > K, S^H R S has rank (M+1)K < B tau, and S^H R S +
    # sigma^2 L I grows ill conditioned with the power budget; the filter read
    # off the (M+1)- and K-sized spectra does not lose digits to it.  S has full
    # row rank, so the push-through oracle solves a well-conditioned system.
    rng = np.random.default_rng(seed)
    v = _conditioned_factors(rng, m + 1, m + 1 + extra_b)
    x = _conditioned_factors(rng, k, k + extra_tau) * 10.0 ** (log_power / 2)
    f = random_factors(rng, m + 1, k)
    s = np.kron(v, x)
    want = lmmse_filter_push_through(s, np.kron(f.a, f.p), 1.0, l)
    got = estimate_lmmse(np.eye(s.shape[1]), (v, x), f, 1.0, l)
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 4), data=st.data(), rows=st.integers(1, 6),
       l=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_estimate_lmmse_at_zero_noise_is_the_zero_forcing_filter(k, m, data, rows, l, seed):
    # B <= M+1 and tau <= K: S has full column rank, so S^H R S is positive
    # definite, and at sigma^2 = 0 the factored filter is the dense
    # (S^H R S)^-1 S^H R.
    b, tau = data.draw(st.integers(1, m + 1)), data.draw(st.integers(1, k))
    rng = np.random.default_rng(seed)
    v, x = _conditioned_factors(rng, m + 1, b), _conditioned_factors(rng, k, tau)
    f = random_factors(rng, m + 1, k)
    s = np.kron(v, x)
    y = rng.standard_normal((rows, s.shape[1])) + 1j * rng.standard_normal((rows, s.shape[1]))
    want = y @ lmmse_filter(s, np.kron(f.a, f.p), 0.0, l)
    got = estimate_lmmse(y, (v, x), f, 0.0, l)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("k, tau, b", [
    *(pytest.param(k, tau, 4, id=f"{k}-{tau}") for k, tau in [(1, 2), (2, 3), (2, 4), (3, 5)]),
    (1, 1, 5), (2, 2, 6), (2, 3, 5), (3, 4, 6)])
@pytest.mark.parametrize("training", ["dft", "random"])
def test_estimate_lmmse_at_zero_noise_with_tau_above_k_is_singular(k, tau, b, training):
    # With M+1 = 4, rank S^H R S = rank S <= 4 K, below B tau when tau > K or
    # B > 4.  The filter, read off the 4- and K-sized spectra, has at most 4 K
    # non-zero entries of dinv, and must raise rather than give a huge filter.
    rng = np.random.default_rng(k * 10 + tau)
    v = _conditioned_factors(rng, 4, b)
    x = (dft_training(k, tau, np.full(k, 3.0)).x if training == "dft"
         else _conditioned_factors(rng, k, tau))
    f = random_factors(rng, 4, k)
    with pytest.raises(SingularGram):
        estimate_lmmse(np.ones((2, b * tau), dtype=complex), (v, x), f, 0.0, 2)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 4), extra_b=st.integers(0, 2),
       extra_tau=st.integers(0, 2), side=st.integers(0, 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf), complex(0, np.nan)]),
       seed=st.integers(0, 2**32 - 1))
def test_non_finite_pattern_or_training_is_singular(k, m, extra_b, extra_tau, side, bad, seed):
    # No Gram product is scanned before LAPACK; a NaN or infinite entry of V
    # or X reaches each kernel's eigen-solve, which raises
    # SingularGram.  (Products of an inf entry can warn of a NaN first.)
    rng = np.random.default_rng(seed)
    vx = [_conditioned_factors(rng, m + 1, m + 1 + extra_b),
          _conditioned_factors(rng, k, k + extra_tau)]
    vx[side][tuple(rng.integers(n) for n in vx[side].shape)] = bad
    v, x = vx
    f = random_factors(rng, m + 1, k)
    y = np.ones((2, v.shape[1] * x.shape[1]), dtype=complex)
    for kernel in (lambda: mse_ls(v, x, 1.0, 2), lambda: mse_lmmse(v, x, f, 1.0, 2),
                   lambda: estimate_ls(y, (v, x)), lambda: estimate_lmmse(y, (v, x), f, 1.0, 2)):
        with pytest.raises(SingularGram):
            kernel()


class TestAnalyticMse:
    def test_ls_orthogonal_case(self):
        # V V^H = (M+1) I and X X^H = P I give sigma^2 L K / P.
        from risce.phase_model import ideal_model

        m, b, k, p = 3, 4, 2, 2.0
        v = naive_pattern(m, b, ideal_model())
        x = dft_training(k, k, np.full(k, p))
        # Tr[(VVH)^-1] = (M+1)/B and Tr[(XXH)^-1] = K/P
        assert mse_ls(v.v, x.x, 1.0, 4) == pytest.approx(4 * ((m + 1) / b) * (k / p), rel=1e-10)

    def test_ls_scaling_homogeneity(self, rng):
        v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert mse_ls(2.0 * v, x, 1.0, 3) == pytest.approx(mse_ls(v, x, 1.0, 3) / 4.0, rel=1e-12)

    def test_ls_matches_explicit_inverse(self, rng):
        v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        s = np.kron(v, x)
        oracle = 2.0 * 4 * np.real(np.trace(np.linalg.inv(s @ s.conj().T)))
        assert mse_ls(v, x, 2.0, 4) == pytest.approx(oracle, rel=1e-10)

    def test_condition_limit_applies_to_the_product(self):
        # cond(S S^H) = cond(V V^H) cond(X X^H): each factor's 1e7 is within
        # CONDITION_LIMIT, their product 1e14 is not, and S S^H is rejected
        # as the dense oracle rejects it.
        v = np.diag([1.0, 10.0 ** -3.5]).astype(complex)
        x = np.diag([1.0, 10.0 ** -3.5]).astype(complex)
        for t in (v, x):
            assert np.linalg.cond(t @ t.conj().T) < CONDITION_LIMIT
            trace_of_inverse(t @ t.conj().T)
        with pytest.raises(SingularGram):
            ls_mse(np.kron(v, x), 1.0, 4)
        with pytest.raises(SingularGram):
            mse_ls(v, x, 1.0, 4)
        with pytest.raises(SingularGram):
            estimate_ls(np.ones((2, 4)), (v, x))
        # At 1e5 each the product 1e10 passes.
        v_ok = np.diag([1.0, 10.0 ** -2.5]).astype(complex)
        assert mse_ls(v_ok, v_ok, 1.0, 4) == pytest.approx(
            ls_mse(np.kron(v_ok, v_ok), 1.0, 4), rel=1e-10)

    def test_lmmse_no_information(self, rng):
        f = random_factors(rng, 3, 2)
        r = np.kron(f.a, f.p)
        j = mse_lmmse(np.zeros((3, 3)), np.zeros((2, 2)), f, 1.0, 4)
        assert j == pytest.approx(np.real(np.trace(r)), rel=1e-12)

    def test_lmmse_closed_form_orthogonal(self):
        # R = L I, V V^H = (M+1) I, X X^H = P I
        from risce.phase_model import ideal_model

        m, k, l, p, sigma2 = 3, 2, 4, 2.0, 1.0
        v = naive_pattern(m, m + 1, ideal_model())
        x = dft_training(k, k, np.full(k, p))
        s = build_S(v, x)
        f = kronecker_factors(l * np.eye((m + 1) * k), k)
        expected = (m + 1) * k * l / (1.0 + (m + 1) * p / sigma2)
        assert mse_lmmse(v.v, x.x, f, sigma2, l) == pytest.approx(expected, rel=1e-10)

    def test_lmmse_never_worse_than_ls(self, model, rng):
        for _ in range(10):
            v = random_feasible_pattern(rng, 3, 4, model)
            x = random_training(rng, 2, 2, [1.0, 1.0])
            f = kronecker_factors(cascaded_correlation(CorrelationSpec(), 3, 2, 4), 2)
            assert mse_lmmse(v.v, x.x, f, 1.0, 4) <= mse_ls(v.v, x.x, 1.0, 4) + 1e-9

    def test_inversion_lemma_equivalence(self, rng):
        # Eq-15-style direct form vs the implemented factored form.
        for _ in range(10):
            f = random_factors(rng, 3, 2)
            v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s = np.kron(v, x)
            direct = np.real(np.trace(np.linalg.inv(
                np.linalg.inv(np.kron(f.a, f.p)) + s @ s.conj().T / (0.8 * 3)
            )))
            assert mse_lmmse(v, x, f, 0.8, 3) == pytest.approx(direct, rel=1e-8)

    def test_lmmse_objective_identity(self, rng):
        f = random_factors(rng, 3, 2)
        r = np.kron(f.a, f.p)
        v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        j = mse_lmmse(v, x, f, 1.0, 4)
        g = lmmse_objective(np.kron(v, x), r, 1.0, 4)
        assert np.real(np.trace(r)) + g == pytest.approx(j, rel=1e-12)
        assert lmmse_objective(np.zeros((6, 8)), r, 1.0, 4) == pytest.approx(0.0, abs=1e-12)

    def test_lmmse_high_snr_accurate_or_rejected(self):
        # Paper profile, naive pattern, DFT training: at 80 dB the MSE matches
        # sigma^2 L Tr[(R S S^H + sigma^2 L I)^{-1} R]; at 150 dB, where the
        # old Tr R - explained form cancelled to rounding and had to raise,
        # the factored form matches the ideal-law closed form.
        from risce.phase_model import ReflectionModel, ideal_model

        k, m, l = 4, 20, 16
        r = cascaded_correlation(CorrelationSpec(), m, k, l)
        f = kronecker_factors(r, k)
        v = naive_pattern(m, m + 1, ReflectionModel())
        x80 = dft_training(k, k, np.full(k, 1e8))
        s80 = build_S(v, x80)
        reference = l * np.real(np.trace(np.linalg.solve(
            r @ s80 @ s80.conj().T + l * np.eye(r.shape[0]), r)))
        assert mse_lmmse(v.v, x80.x, f, 1.0, l) == pytest.approx(reference, rel=1e-6)
        v_ideal = naive_pattern(m, m + 1, ideal_model())
        j150 = mse_lmmse(v_ideal.v, dft_training(k, k, np.full(k, 1e15)).x, f, 1.0, l)
        assert j150 == pytest.approx(
            _ideal_naive_dft_mse(CorrelationSpec(), np.eye(m), k, l, 1e15), rel=1e-12)

    @pytest.mark.parametrize("rho", [1, 2])
    def test_lmmse_closed_form_oracle(self, rho):
        # Ideal law: the naive pattern has V V^H = B I and the DFT training
        # X X^H = P I, so J = sum_ij alpha_i p_j / (1 + B P alpha_i p_j / (sigma^2 L))
        # over the eigenvalues of A and of P = L Psi_UE.
        from risce.phase_model import ideal_model

        k, m, l = 4, 20, 16
        indicator = group_reduce(m, rho).indicator()
        m_g = indicator.shape[1]
        f = kronecker_factors(grouped_cascaded_correlation(CorrelationSpec(), indicator, k, l), k)
        v = naive_pattern(m_g, m_g + 1, ideal_model())
        for snr_db in range(-10, 151, 10):
            power = 10.0 ** (snr_db / 10.0)
            j = mse_lmmse(v.v, dft_training(k, k, np.full(k, power)).x, f, 1.0, l)
            oracle = _ideal_naive_dft_mse(CorrelationSpec(), indicator, k, l, power)
            assert j == pytest.approx(oracle, rel=1e-12), snr_db

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
