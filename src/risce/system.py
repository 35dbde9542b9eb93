"""Effective training matrix, reception model, and LS/LMMSE estimators.

The stacked received signal over B subframes is Y = Gamma S + Z with the
effective training S = (V kron I_K)(I_B kron X) = V kron X, so the Gram
factorizes as S S^H = (V V^H) kron (X X^H).  Analytic MSEs:

    J_LS    = sigma^2 L Tr[(S S^H)^{-1}]
    J_LMMSE = Tr[(R^{-1} + S S^H / (sigma^2 L))^{-1}]
            = sum_ij a1_i a2_j / (1 + lam1_i lam2_j / (sigma^2 L))

for R = kron(A, P) (:func:`~risce.channel.kronecker_factors`), with
(lam1, E1) = eigh(A^1/2 V V^H A^1/2), (lam2, E2) = eigh(P^1/2 X X^H P^1/2),
a1 = diag(E1^H A E1) and a2 = diag(E2^H P E2).  Every term is non-negative,
so nothing cancels, and no R^{-1} is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import KroneckerFactors, complex_gaussians, seed_block
from .errors import DimensionMismatch

POWER_TOL = 1e-9  # relative: a row on its budget meets P_k only to rounding


@dataclass(frozen=True)
class ReflectionPattern:
    """(M+1) x B reflection coefficients; the last row (direct link) is 1."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        if v.ndim != 2 or v.shape[0] < 2:
            raise DimensionMismatch(f"pattern must be (M+1) x B with M >= 1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("pattern entries must be finite")
        if not np.all(np.abs(v[-1] - 1.0) <= 1e-12):
            raise DimensionMismatch("last pattern row must be all-ones")

    @property
    def m(self) -> int:
        return self.v.shape[0] - 1


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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise DimensionMismatch("training entries and budgets must be finite")
        row_power = np.sum(np.abs(x) ** 2, axis=1)
        if np.any(row_power > p * (1.0 + POWER_TOL)):
            raise DimensionMismatch("per-UE power budget exceeded")


def build_S(pattern: ReflectionPattern, training: TrainingMatrix) -> np.ndarray:
    """Effective training S = (V kron I_K)(I_B kron X), i.e. kron(V, X)."""
    return np.kron(pattern.v, training.x)


def simulate_reception(gamma: np.ndarray, s: np.ndarray, sigma2: float, rng_seed) -> np.ndarray:
    """Received training block Y = Gamma S + Z with i.i.d. CN(0, sigma2) noise.

    With a list of T SeedSequences (:func:`~risce.channel.seed_block`),
    gamma is a (T, L, n) stack of trials: Gamma S is one (T L) x n product,
    and trial t's noise comes from its own seed.
    """
    seeds, stacked = seed_block(rng_seed)
    block = gamma if stacked else gamma[None]
    if block.ndim != 3 or block.shape[0] != len(seeds) or block.shape[2] != s.shape[0]:
        raise DimensionMismatch(
            f"Gamma {gamma.shape} does not match S {s.shape} and {len(seeds)} seed(s)")
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")
    y = (block.reshape(-1, s.shape[0]) @ s).reshape(*block.shape[:2], s.shape[1])
    if sigma2 > 0.0:
        [noise] = complex_gaussians([np.random.default_rng(seed) for seed in seeds],
                                    [y.shape[1:]])
        noise *= np.sqrt(sigma2)
        y = y.astype(complex, copy=False)
        y += noise
    return y if stacked else y[0]


def estimate_ls(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """LS estimate Y S^H (S S^H)^{-1}; raises SingularGram on bad Grams."""
    gram = s @ s.conj().T
    numerics.conditioned_spectrum(gram)
    return numerics.solve_hpd(gram, s @ y.conj().T).conj().T


def estimate_lmmse(
    y: np.ndarray, s: np.ndarray, r_gamma: np.ndarray, sigma2: float, l: int
) -> np.ndarray:
    """LMMSE estimate Y W with the filter W = (S^H R S + sigma^2 L I)^{-1} S^H R."""
    f = s.conj().T @ r_gamma  # (tau*B, n)
    a = f @ s + sigma2 * l * np.eye(s.shape[1])
    return y @ numerics.solve_hpd(a, f)


def mse_ls(s: np.ndarray, sigma2: float, l: int) -> float:
    """Analytic LS MSE sigma^2 L Tr[(S S^H)^{-1}]."""
    return sigma2 * l * numerics.trace_of_inverse(s @ s.conj().T)


def lmmse_spectrum(half: np.ndarray, t: np.ndarray):
    """One side (lam, half E, a) of J: (lam, E) = eigh(half T T^H half), a = diag(E^H half^2 E).

    half is A^1/2 with T = V, or P^1/2 with T = X.
    """
    g = half @ t
    lam, e = np.linalg.eigh(numerics.require_hermitian(g @ g.conj().T))
    he = half @ e
    return np.clip(lam, 0.0, None), he, np.sum(np.abs(he) ** 2, axis=0)


def lmmse_score(spectra, sigma2: float, l: int) -> float:
    """J_LMMSE from its spectra [V's, X's] of :func:`lmmse_spectrum`.

    At sigma^2 = 0 a term with lam1_i lam2_j = 0 keeps its prior a1_i a2_j.
    """
    (lam1, _, a1), (lam2, _, a2) = spectra
    noise = sigma2 * l
    shared = noise + np.outer(lam1, lam2)
    kept = np.divide(noise, shared, out=np.ones_like(shared), where=shared > 0.0)
    return float(np.sum(np.outer(a1, a2) * kept))


def mse_lmmse(v: np.ndarray, x: np.ndarray, factors: KroneckerFactors,
              sigma2: float, l: int) -> float:
    """Analytic LMMSE MSE of S = kron(V, X) under R = kron(A, P), in factored form."""
    spectra = [lmmse_spectrum(factors.a_half, v), lmmse_spectrum(factors.p_half, x)]
    return lmmse_score(spectra, sigma2, l)


def nmse(j: float, l: int, k: int, m: int) -> float:
    """MSE normalized by the channel dimension L*K*(M+1)."""
    return j / (l * k * (m + 1))
