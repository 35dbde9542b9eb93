"""Effective training matrix, reception model, and LS/LMMSE estimators.

The stacked received signal over B subframes is Y = Gamma S + Z with the
effective training S = (V kron I_K)(I_B kron X) = V kron X, so the Gram
factorizes as S S^H = (V V^H) kron (X X^H).  Analytic MSEs:

    J_LS    = sigma^2 L Tr[(S S^H)^{-1}]
    J_LMMSE = Tr[(R^{-1} + S S^H / (sigma^2 L))^{-1}]
            = Tr[R] - Tr[R S (S^H R S + sigma^2 L I)^{-1} S^H R]

The second LMMSE form needs no R^{-1} and is the one implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import complex_gaussian
from .errors import DimensionMismatch, SingularGram

POWER_TOL = 1e-9  # relative: a row on its budget meets P_k only to rounding
# Tr R - explained carries a rounding error of about 0.1-0.5 eps Tr R, so an
# LMMSE MSE below this share of Tr R has fewer than about 6 correct digits.
_LMMSE_MSE_FLOOR = 1e-10


@dataclass(frozen=True)
class ReflectionPattern:
    """(M+1) x B reflection coefficients; the last row (direct link) is 1."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        if v.ndim != 2 or v.shape[0] < 2:
            raise DimensionMismatch(f"pattern must be (M+1) x B with M >= 1, got {v.shape}")
        if not np.allclose(v[-1], 1.0, atol=1e-12):
            raise DimensionMismatch("last pattern row must be all-ones")

    @property
    def m(self) -> int:
        return self.v.shape[0] - 1

    @property
    def b(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class TrainingMatrix:
    """K x tau training symbols with per-UE power budgets."""

    x: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=complex)
        p = np.asarray(self.power, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "power", p)
        if x.ndim != 2 or p.shape != (x.shape[0],):
            raise DimensionMismatch(f"X must be K x tau with K budgets, got {x.shape}")
        row_power = np.sum(np.abs(x) ** 2, axis=1)
        if np.any(row_power > p * (1.0 + POWER_TOL)):
            raise DimensionMismatch("per-UE power budget exceeded")

    @property
    def k(self) -> int:
        return self.x.shape[0]

    @property
    def tau(self) -> int:
        return self.x.shape[1]


def build_S(pattern: ReflectionPattern, training: TrainingMatrix) -> np.ndarray:
    """Effective training S = (V kron I_K)(I_B kron X), i.e. kron(V, X)."""
    return np.kron(pattern.v, training.x)


def simulate_reception(gamma: np.ndarray, s: np.ndarray, sigma2: float, rng_seed) -> np.ndarray:
    """Received training block Y = Gamma S + Z with i.i.d. CN(0, sigma2) noise."""
    if gamma.shape[1] != s.shape[0]:
        raise DimensionMismatch(f"Gamma {gamma.shape} does not match S {s.shape}")
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")
    rng = np.random.default_rng(rng_seed)
    y = gamma @ s
    if sigma2 > 0.0:
        y = y + np.sqrt(sigma2) * complex_gaussian(rng, y.shape)
    return y


def estimate_ls(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """LS estimate Y S^H (S S^H)^{-1}; raises SingularGram on bad Grams."""
    gram = s @ s.conj().T
    numerics.conditioned_spectrum(gram)
    return numerics.solve_hpd(gram, s @ y.conj().T).conj().T


def lmmse_filter(
    s: np.ndarray, r_gamma: np.ndarray, sigma2: float, l: int
) -> tuple[np.ndarray, np.ndarray]:
    """LMMSE filter W = (S^H R S + sigma^2 L I)^{-1} S^H R, with F = S^H R.

    Returns (W, F); F is returned because the explained-variance trace
    Re sum(W o conj(F)) needs it too.
    """
    f = s.conj().T @ r_gamma  # (tau*B, n)
    a = f @ s + sigma2 * l * np.eye(s.shape[1])
    return numerics.solve_hpd(a, f), f


def estimate_lmmse(
    y: np.ndarray, s: np.ndarray, r_gamma: np.ndarray, sigma2: float, l: int
) -> np.ndarray:
    """LMMSE estimate Y W with the filter W of :func:`lmmse_filter`."""
    return y @ lmmse_filter(s, r_gamma, sigma2, l)[0]


def mse_ls(s: np.ndarray, sigma2: float, l: int) -> float:
    """Analytic LS MSE sigma^2 L Tr[(S S^H)^{-1}]."""
    return sigma2 * l * numerics.trace_of_inverse(s @ s.conj().T)


def _lmmse_explained(s: np.ndarray, r_gamma: np.ndarray, sigma2: float, l: int) -> float:
    """Tr[R S (S^H R S + sigma^2 L I)^{-1} S^H R], the prior-error reduction."""
    w, f = lmmse_filter(s, r_gamma, sigma2, l)
    return float(np.real(np.sum(w * f.conj())))


def mse_lmmse(s: np.ndarray, r_gamma: np.ndarray, sigma2: float, l: int) -> float:
    """Analytic LMMSE MSE via the inversion-lemma form (no R^{-1} needed).

    With noise, raises SingularGram when the MSE is below 1e-10 Tr R: there
    the cancellation in Tr R - explained leaves too few correct digits.
    """
    total = float(np.real(np.trace(r_gamma)))
    j = total - _lmmse_explained(s, r_gamma, sigma2, l)
    if sigma2 > 0.0 and j < _LMMSE_MSE_FLOOR * total:
        raise SingularGram(f"LMMSE MSE {j:.3g} is below {_LMMSE_MSE_FLOOR:g} Tr R, "
                           "where Tr R - explained cancels to rounding")
    return j


def lmmse_objective(s: np.ndarray, r_gamma: np.ndarray, sigma2: float, l: int) -> float:
    """Design objective g(S) = -Tr[R S (S^H R S + sigma^2 L I)^{-1} S^H R].

    Relates to the MSE by J_LMMSE = Tr[R] + g(S).
    """
    return -_lmmse_explained(s, r_gamma, sigma2, l)


def nmse(j: float, l: int, k: int, m: int) -> float:
    """MSE normalized by the channel dimension L*K*(M+1)."""
    return j / (l * k * (m + 1))
