"""Tests for the dense Hermitian kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_feasible_pattern, random_hpd, random_training
from risce.errors import SingularGram
from risce.numerics import largest_eigenvalue, solve_hpd, trace_of_inverse
from risce.phase_model import ReflectionModel
from risce.system import build_S, estimate_ls


class TestLargestEigenvalue:
    def test_diagonal(self):
        res = largest_eigenvalue(np.diag([1.0, 2.0, 3.0]))
        assert res.converged
        assert res.value == pytest.approx(3.0, rel=1e-8)

    def test_close_gap_is_exact(self):
        # With a 1e-3 spectral gap an iterative estimate can fall short of
        # lambda_max by more than the LMMSE design's SAFETY_MARGIN.
        res = largest_eigenvalue(np.diag([1.0, 0.999, 0.5]))
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_rank_one(self, rng):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        res = largest_eigenvalue(np.outer(v, v.conj()))
        assert res.value == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-8)

    def test_matches_dense_eigensolver(self, rng):
        for _ in range(20):
            a = random_hpd(rng, 8)
            res = largest_eigenvalue(a)
            oracle = float(np.linalg.eigvalsh(a)[-1])
            assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_zero_matrix(self):
        res = largest_eigenvalue(np.zeros((4, 4)))
        assert res.converged
        assert res.value == 0.0

    def test_deterministic(self, rng):
        a = random_hpd(rng, 10)
        assert largest_eigenvalue(a).value == largest_eigenvalue(a).value

    def test_rayleigh_lower_bound(self, rng):
        a = random_hpd(rng, 7)
        lam = largest_eigenvalue(a).value
        for _ in range(50):
            x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            quotient = np.real(x.conj() @ a @ x) / np.real(x.conj() @ x)
            assert lam >= quotient - 1e-8 * abs(lam)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            largest_eigenvalue(rng.standard_normal((4, 4)) + np.triu(np.ones((4, 4))))


class TestTraceOfInverse:
    def test_scaled_identity(self):
        assert trace_of_inverse(2.5 * np.eye(8)) == pytest.approx(8 / 2.5, rel=1e-12)

    def test_diagonal(self):
        d = np.array([0.5, 2.0, 4.0])
        assert trace_of_inverse(np.diag(d)) == pytest.approx(np.sum(1.0 / d), rel=1e-12)

    def test_matches_explicit_inverse(self, rng):
        for _ in range(20):
            a = random_hpd(rng, 9)
            oracle = float(np.real(np.trace(np.linalg.inv(a))))
            assert trace_of_inverse(a) == pytest.approx(oracle, rel=1e-9)

    def test_unitary_invariance(self, rng):
        a = random_hpd(rng, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert trace_of_inverse(q @ a @ q.conj().T) == pytest.approx(
            trace_of_inverse(a), rel=1e-9
        )

    def test_singular_raises(self):
        a = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SingularGram):
            trace_of_inverse(a)

    def test_ill_conditioned_raises(self):
        a = np.diag([1.0, 1e-14])
        with pytest.raises(SingularGram):
            trace_of_inverse(a)


class TestSolveHpd:
    def test_identity(self, rng):
        b = rng.standard_normal((5, 3))
        assert np.allclose(solve_hpd(np.eye(5), b), b)

    def test_scaled_identity(self, rng):
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        assert np.allclose(solve_hpd(2.0 * np.eye(5), b), b / 2.0)

    def test_matches_explicit_inverse(self, rng):
        a = random_hpd(rng, 8)
        b = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        assert np.allclose(solve_hpd(a, b), np.linalg.inv(a) @ b, atol=1e-9)
        residual = np.linalg.norm(a @ solve_hpd(a, b) - b)
        assert residual <= 1e-9 * np.linalg.norm(b)

    def test_not_pd_raises(self):
        with pytest.raises(SingularGram):
            solve_hpd(np.diag([1.0, -1.0]), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kernel", [
    largest_eigenvalue, trace_of_inverse, lambda a: solve_hpd(a, np.eye(3)),
], ids=["largest_eigenvalue", "trace_of_inverse", "solve_hpd"])
def test_non_finite_matrix_rejected(kernel, bad):
    # A symmetric pair of non-finite entries passes the symmetry check, so
    # finiteness is checked on its own, before any LAPACK call.
    a = np.eye(3)
    a[0, 1] = a[1, 0] = bad
    with pytest.raises(SingularGram):
        kernel(a)


@st.composite
def spectra(draw):
    """(A, d, Q) with A = Q diag(d) Q^H, Q a random unitary and the condition
    number max(d)/min(d) log-uniform in [1, 1e15]."""
    n = draw(st.integers(1, 12))
    log_cond = draw(st.floats(0.0, 15.0))
    scale = draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = np.concatenate(([0.0, -log_cond], -log_cond * rng.uniform(size=n)))[:n]
    d = 10.0 ** (scale + exponents)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * d) @ q.conj().T, d, q


@settings(max_examples=150, deadline=None)
@given(case=spectra())
def test_spectra_exact_or_rejected(case):
    a, d, q = case
    cond = d.max() / d.min()
    lam = largest_eigenvalue(a).value
    assert np.isfinite(lam) and lam >= d.max() * (1.0 - 1e-12)

    s = q * np.sqrt(d)                       # S S^H = A
    gamma = np.random.default_rng(0).standard_normal((2, len(d))) + 0j
    if cond >= 1e13:
        with pytest.raises(SingularGram):
            trace_of_inverse(a)
        with pytest.raises(SingularGram):
            estimate_ls(gamma @ s, s)
        return
    try:
        trace, estimate = trace_of_inverse(a), estimate_ls(gamma @ s, s)
    except SingularGram:
        assert cond > 1e8
        return
    assert np.isfinite(trace) and np.all(np.isfinite(estimate))
    if cond <= 1e8:
        assert trace == pytest.approx(np.sum(1.0 / d), rel=1e-6)
        assert np.linalg.norm(estimate - gamma) <= 1e-6 * np.linalg.norm(gamma)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3), m=st.integers(1, 4), extra_b=st.integers(0, 2),
    extra_tau=st.integers(0, 2), beta_min=st.floats(0.0, 1.0),
    alpha=st.floats(0.5, 3.0), delta=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_kron_trace_identity(k, m, extra_b, extra_tau, beta_min, alpha, delta, seed):
    # Tr[(S S^H)^-1] = Tr[(V V^H)^-1] Tr[(X X^H)^-1] for S = kron(V, X).
    # Random feasible patterns reach condition numbers above 1e9, so the
    # tolerance is the rounding bound eps * cond(S S^H) with a 64x margin.
    rng = np.random.default_rng(seed)
    model = ReflectionModel(beta_min=beta_min, alpha=alpha, delta=delta)
    v = random_feasible_pattern(rng, m, m + 1 + extra_b, model)
    x = random_training(rng, k, k + extra_tau, rng.uniform(0.5, 2.0, k))
    s = build_S(v, x)
    gram = s @ s.conj().T
    try:
        expected = trace_of_inverse(v.v @ v.v.conj().T) * trace_of_inverse(x.x @ x.x.conj().T)
    except SingularGram:
        # With beta_min = 0 a row of V can nearly vanish.  cond(S S^H) is the
        # product of the factors' condition numbers, so S S^H is rejected too.
        with pytest.raises(SingularGram):
            trace_of_inverse(gram)
        return
    rel = 64.0 * np.finfo(float).eps * np.linalg.cond(gram)
    assert trace_of_inverse(gram) == pytest.approx(expected, rel=rel)
