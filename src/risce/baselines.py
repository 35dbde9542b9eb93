"""Reference schemes for performance comparison, plus element grouping.

Schemes: the proposed designs, the ideal unit-modulus RIS (closed-form MM
updates), its entrywise projection onto the reflection law, the naive
projected-DFT pattern (also the initial point of the iterative designs), and
the classic on-off pattern.  Element grouping shares one coefficient across
rho neighboring elements, cutting the training overhead to K(M/rho + 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDims, InvalidGrouping
from .phase_model import ReflectionModel, reflection_coefficient
from .system import ReflectionPattern

TWO_PI = 2.0 * np.pi


class SchemeId(enum.Enum):
    PROPOSED = "proposed"
    IDEAL_RIS = "ideal"
    IDEAL_RIS_PROJECTION = "ideal-projection"
    NAIVE = "naive"
    ON_OFF = "onoff"
    PROPOSED_GROUPED = "proposed-grouped"


def _unit_phasor(z: np.ndarray) -> np.ndarray:
    """exp(-j arg(z)) entrywise; arg(0) = 0 keeps the result deterministic."""
    return np.exp(-1j * np.angle(z))


def ideal_update_ls(a0: np.ndarray) -> ReflectionPattern:
    """Closed-form ideal-RIS MM step for the LS surrogate.

    a0 is the (B, M+1) linear-coefficient block; entry (m, n) of the result
    is e^{-j arg(-[A0]_{n,m})}, the unit-modulus minimizer of
    lambda1 + 2 Re{[A0]_{n,m} v}.
    """
    b, m_plus_1 = a0.shape
    v = np.ones((m_plus_1, b), dtype=complex)
    v[:-1] = _unit_phasor(-a0[:, :-1].T)
    return ReflectionPattern(v=v)


def ideal_update_lmmse(c_map: np.ndarray) -> ReflectionPattern:
    """Closed-form ideal-RIS MM step for the LMMSE surrogate.

    c_map is the (M+1, B) matrix of summed diagonal C0 entries; entry (m, n)
    becomes e^{-j arg(c_{m,n})}, maximizing Re{c_{m,n} v} over |v| = 1.
    """
    v = np.ones(c_map.shape, dtype=complex)
    v[:-1] = _unit_phasor(c_map[:-1])
    return ReflectionPattern(v=v)


def naive_pattern(m: int, b: int, model: ReflectionModel) -> ReflectionPattern:
    """Projected-DFT pattern: DFT phases with law-compliant amplitudes.

    RIS row m takes the phases of row m+1 of the B x B DFT matrix (row 0,
    all-ones, is the direct link), so under the ideal model the pattern is
    exactly the first M+1 DFT rows and V V^H = B I.
    """
    if b < m + 1:
        raise InvalidDims(f"naive pattern needs b >= m + 1 ({b} < {m + 1})")
    rows = np.arange(1, m + 1)
    cols = np.arange(b)
    phases = (-TWO_PI * np.outer(rows, cols) / b) % TWO_PI
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = reflection_coefficient(phases, model)
    return ReflectionPattern(v=v)


def onoff_pattern(m: int, b: int) -> ReflectionPattern:
    """One element on (unit amplitude) per subframe, direct-only subframe last."""
    if b != m + 1:
        raise InvalidDims(f"on-off pattern needs b == m + 1 ({b} != {m + 1})")
    v = np.zeros((m + 1, b), dtype=complex)
    v[np.arange(m), np.arange(m)] = 1.0
    v[m, :] = 1.0
    return ReflectionPattern(v=v)


@dataclass(frozen=True)
class ElementGrouping:
    """Partition of M elements into M/rho groups of rho neighbors."""

    m: int
    rho: int

    @property
    def m_grouped(self) -> int:
        return self.m // self.rho

    def training_overhead(self, k: int) -> int:
        """Training symbols needed when estimating the grouped channel."""
        return k * (self.m_grouped + 1)

    def indicator(self) -> np.ndarray:
        """(M, M_grouped) 0/1 membership matrix."""
        out = np.zeros((self.m, self.m_grouped))
        for g in range(self.m_grouped):
            out[g * self.rho : (g + 1) * self.rho, g] = 1.0
        return out

    def expand(self, pattern: ReflectionPattern) -> ReflectionPattern:
        """Deploy a grouped design: repeat each RIS row rho times."""
        if pattern.m != self.m_grouped:
            raise InvalidGrouping(
                f"pattern has {pattern.m} RIS rows, expected {self.m_grouped}"
            )
        v = np.ones((self.m + 1, pattern.b), dtype=complex)
        v[: self.m] = np.repeat(pattern.v[:-1], self.rho, axis=0)
        return ReflectionPattern(v=v)

    def combine_gamma(self, gamma: np.ndarray, k: int) -> np.ndarray:
        """Sum the cascaded-channel blocks of each group (direct block kept)."""
        l = gamma.shape[0]
        blocks = gamma[:, : self.m * k].reshape(l, self.m_grouped, self.rho, k)
        out = np.empty((l, (self.m_grouped + 1) * k), dtype=complex)
        out[:, : self.m_grouped * k] = blocks.sum(axis=2).reshape(l, -1)
        out[:, self.m_grouped * k :] = gamma[:, self.m * k :]
        return out


def group_reduce(m: int, rho: int) -> ElementGrouping:
    """Grouped dimensions and expansion map; rho must divide M."""
    if rho < 1 or m % rho != 0:
        raise InvalidGrouping(f"rho={rho} must be a positive divisor of m={m}")
    return ElementGrouping(m=m, rho=rho)
