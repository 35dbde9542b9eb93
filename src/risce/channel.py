"""Spatially correlated Rayleigh channels and the cascaded correlation matrix.

Channels follow the Kronecker model with exponential correlation profiles
psi^|i-j| at the UEs, the RIS and the BS; the same correlation matrix is used
for both links seen at each node.  The quantity estimated at the BS is the
cascaded channel Gamma = [g_1 h_{r,1}^H, ..., g_M h_{r,M}^H, H_d], whose
correlation matrix E{Gamma^H Gamma} has the closed block-diagonal form
produced by :func:`cascaded_correlation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples: two real normals scaled by 1/sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_channels(
    rng_seed,
    config: SystemConfig,
    corr: CorrelationSpec,
) -> ChannelRealization:
    """Draw one correlated Rayleigh realization, deterministic per seed.

    Coloring uses the symmetric square roots: H_r = R^(1/2) Hbar U^(T/2),
    G = B^(1/2) Gbar R^(T/2), H_d = B^(1/2) Dbar U^(T/2) with i.i.d. CN(0,1)
    bar-matrices drawn in that fixed order.  The square roots come from
    :func:`coloring_factor`'s cache.
    """
    rng = np.random.default_rng(rng_seed)
    s_ue = coloring_factor(config.k, corr.psi_ue)
    s_ris = coloring_factor(config.m, corr.psi_ris)
    s_bs = coloring_factor(config.l, corr.psi_bs)

    h_r = s_ris @ complex_gaussian(rng, (config.m, config.k)) @ s_ue.T
    g = s_bs @ complex_gaussian(rng, (config.l, config.m)) @ s_ris.T
    h_d = s_bs @ complex_gaussian(rng, (config.l, config.k)) @ s_ue.T
    return ChannelRealization(g=g, h_r=h_r, h_d=h_d)


def cascaded_channel(ch: ChannelRealization) -> np.ndarray:
    """Stack the per-element rank-1 reflected channels and the direct link.

    Returns Gamma of shape (L, (M+1)*K) with block m equal to
    g_m @ H_r[m, :] for m <= M and the last block equal to H_d.
    """
    l, m = ch.g.shape
    m_r, k = ch.h_r.shape
    if m_r != m or ch.h_d.shape != (l, k):
        raise DimensionMismatch(
            f"inconsistent shapes: g {ch.g.shape}, h_r {ch.h_r.shape}, h_d {ch.h_d.shape}"
        )
    # (M, L, K) stack of outer products, then flatten to block columns.
    blocks = ch.g.T[:, :, None] * ch.h_r[:, None, :]
    gamma = np.empty((l, (m + 1) * k), dtype=complex)
    gamma[:, : m * k] = np.transpose(blocks, (1, 0, 2)).reshape(l, m * k)
    gamma[:, m * k :] = ch.h_d
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
