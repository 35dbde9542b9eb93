"""Spatially correlated Rayleigh channels and the cascaded correlation matrix.

Channels follow the Kronecker model with exponential correlation profiles
psi^|i-j| at the UEs, the RIS and the BS; the same correlation matrix is used
for both links seen at each node.  The quantity estimated at the BS is the
cascaded channel Gamma = [g_1 h_{r,1}^H, ..., g_M h_{r,M}^H, H_d], whose
correlation matrix E{Gamma^H Gamma} has the closed block-diagonal form
produced by :func:`cascaded_correlation`.  It is kron(A, L Psi_UE), and
:func:`kronecker_factors` reads both factors back from its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidPsi
from .types import SystemConfig


@dataclass(frozen=True)
class CorrelationSpec:
    """Exponential correlation coefficients at the UEs, RIS and BS."""

    psi_ue: float = 0.2
    psi_ris: float = 0.4
    psi_bs: float = 0.6

    def __post_init__(self) -> None:
        for name in ("psi_ue", "psi_ris", "psi_bs"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise InvalidPsi(f"{name} must be in [0, 1), got {v}")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the RIS-BS, UE-RIS and UE-BS channels."""

    g: np.ndarray      # (L, M)
    h_r: np.ndarray    # (M, K)
    h_d: np.ndarray    # (L, K)


class KroneckerFactors(NamedTuple):
    """R = kron(a, p), with the Hermitian square roots of both factors."""

    a: np.ndarray
    p: np.ndarray
    a_half: np.ndarray
    p_half: np.ndarray


def exp_correlation(n: int, psi: float) -> np.ndarray:
    """n x n exponential correlation matrix [Psi]_{i,j} = psi^|i-j|."""
    if not 0.0 <= psi < 1.0:
        raise InvalidPsi(f"psi must be in [0, 1), got {psi}")
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    idx = np.arange(n)
    return psi ** np.abs(idx[:, None] - idx[None, :])


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric (Hermitian) square root via eigendecomposition."""
    w, u = np.linalg.eigh(a)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


@lru_cache(maxsize=32)
def coloring_factor(n: int, psi: float) -> np.ndarray:
    """Read-only sqrt_psd(exp_correlation(n, psi)), cached per (n, psi)."""
    factor = sqrt_psd(exp_correlation(n, psi))
    factor.flags.writeable = False
    return factor


def complex_gaussians(rngs, shapes) -> list[np.ndarray]:
    """i.i.d. CN(0, 1) samples: a (len(rngs), *shape) block for each shape.

    Each generator makes one standard_normal draw.  For each shape in turn
    the draw holds the real parts, then the imaginary parts, so row t of
    every block, and rngs[t]'s state after, are what a draw of two real
    normal arrays per shape would give.  Each block is divided by sqrt(2) in
    place.
    """
    sizes = [math.prod(shape) for shape in shapes]
    blocks = [np.empty((len(rngs), n), dtype=complex) for n in sizes]
    for trial, rng in enumerate(rngs):
        draw = rng.standard_normal(2 * sum(sizes))
        start = 0
        for block, n in zip(blocks, sizes):
            block[trial].real = draw[start : start + n]
            block[trial].imag = draw[start + n : start + 2 * n]
            start += 2 * n
    for block in blocks:
        block /= np.sqrt(2.0)
    return [block.reshape(-1, *shape) for block, shape in zip(blocks, shapes)]


def complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """i.i.d. CN(0, 1) samples of one shape: :func:`complex_gaussians` of one generator."""
    return complex_gaussians([rng], [shape])[0][0]


def seed_block(rng_seed) -> tuple[list, bool]:
    """(seeds, stacked): a list of SeedSequences seeds one trial each of a block.

    Anything else is one seed for np.random.default_rng, a block of one trial
    whose results the caller returns without the leading trial axis.
    """
    stacked = isinstance(rng_seed, list) and all(
        isinstance(seed, np.random.SeedSequence) for seed in rng_seed)
    return (rng_seed, True) if stacked else ([rng_seed], False)


def sample_channels(
    rng_seed,
    config: SystemConfig,
    corr: CorrelationSpec,
) -> ChannelRealization:
    """Draw one correlated Rayleigh realization, deterministic per seed.

    Coloring uses the symmetric square roots: H_r = R^(1/2) Hbar U^(T/2),
    G = B^(1/2) Gbar R^(T/2), H_d = B^(1/2) Dbar U^(T/2) with i.i.d. CN(0,1)
    bar-matrices drawn in that fixed order.  The square roots come from
    :func:`coloring_factor`'s cache.  A list of T SeedSequences
    (:func:`seed_block`) draws T trials, each from its own stream, and colors
    them together: every matrix then has a leading trial axis.
    """
    seeds, stacked = seed_block(rng_seed)
    s_ue = coloring_factor(config.k, corr.psi_ue)
    s_ris = coloring_factor(config.m, corr.psi_ris)
    s_bs = coloring_factor(config.l, corr.psi_bs)

    h_bar, g_bar, d_bar = complex_gaussians(
        [np.random.default_rng(seed) for seed in seeds],
        ((config.m, config.k), (config.l, config.m), (config.l, config.k)))
    h_r = s_ris @ h_bar @ s_ue.T
    g = s_bs @ g_bar @ s_ris.T
    h_d = s_bs @ d_bar @ s_ue.T
    if not stacked:
        g, h_r, h_d = g[0], h_r[0], h_d[0]
    return ChannelRealization(g=g, h_r=h_r, h_d=h_d)


def cascaded_channel(ch: ChannelRealization) -> np.ndarray:
    """Stack the per-element rank-1 reflected channels and the direct link.

    Returns Gamma of shape (L, (M+1)*K) with block m equal to
    g_m @ H_r[m, :] for m <= M and the last block equal to H_d.  Leading
    (trial) axes of the realization broadcast: each gets its own Gamma.
    """
    *lead, l, m = ch.g.shape
    k = ch.h_r.shape[-1]
    if ch.h_r.shape != (*lead, m, k) or ch.h_d.shape != (*lead, l, k):
        raise DimensionMismatch(
            f"inconsistent shapes: g {ch.g.shape}, h_r {ch.h_r.shape}, h_d {ch.h_d.shape}"
        )
    # (..., M, L, K) stack of outer products, then flatten to block columns.
    blocks = np.swapaxes(ch.g, -1, -2)[..., None] * ch.h_r[..., :, None, :]
    gamma = np.empty((*lead, l, (m + 1) * k), dtype=complex)
    gamma[..., : m * k] = np.swapaxes(blocks, -3, -2).reshape(*lead, l, m * k)
    gamma[..., m * k :] = ch.h_d
    return gamma


def cascaded_correlation(corr: CorrelationSpec, m: int, k: int, l: int) -> np.ndarray:
    """Analytic correlation matrix E{Gamma^H Gamma} of the cascaded channel.

    Block-diagonal: L * (Psi_RIS o Psi_RIS) kron Psi_UE for the M reflected
    blocks (o = Hadamard product) and L * Psi_UE for the direct block; the
    reflected/direct cross-blocks vanish.  This is the grouped correlation
    with every element in its own group.
    """
    return grouped_cascaded_correlation(corr, np.eye(m), k, l)


def grouped_cascaded_correlation(
    corr: CorrelationSpec, indicator: np.ndarray, k: int, l: int
) -> np.ndarray:
    """Correlation of the group-combined cascaded channel.

    indicator is the (M, M_grouped) 0/1 membership matrix; combined block
    (i, j) is the sum of the element-level blocks over both groups, so the
    RIS factor becomes indicator^T (Psi o Psi) indicator.
    """
    m = indicator.shape[0]
    psi_ue = exp_correlation(k, corr.psi_ue)
    psi_ris = exp_correlation(m, corr.psi_ris)
    factor = indicator.T @ (psi_ris * psi_ris) @ indicator
    m_g = indicator.shape[1]
    n = (m_g + 1) * k
    r = np.zeros((n, n))
    r[: m_g * k, : m_g * k] = l * np.kron(factor, psi_ue)
    r[m_g * k :, m_g * k :] = l * psi_ue
    return r


def kronecker_factors(r_gamma: np.ndarray, k: int) -> KroneckerFactors:
    """P = R[-K:, -K:], A[i, j] = R[iK, jK] / P[0, 0]; DimensionMismatch unless R = kron(A, P)."""
    p = r_gamma[-k:, -k:]
    a = r_gamma[::k, ::k] / p[0, 0] if r_gamma.shape[0] % k == 0 and p[0, 0].real > 0 else None
    tol = 4 * np.finfo(float).eps * np.max(np.abs(r_gamma))   # kron(A, P) rounds twice
    if a is None or not np.max(np.abs(np.kron(a, p) - r_gamma)) <= tol:
        raise DimensionMismatch(f"R {r_gamma.shape} is not kron(A, P) with a {k} x {k} P")
    return KroneckerFactors(a, p, sqrt_psd(a), sqrt_psd(p))
