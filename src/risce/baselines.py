"""Reference schemes for performance comparison, the designs' start, and element grouping.

Schemes: the proposed designs, the ideal unit-modulus RIS (the same MM
designs, whose phase search is then exact), its entrywise projection onto the
reflection law, the naive projected-DFT pattern (with :func:`dft_training`,
the MM designs' start, :func:`start_pattern`), and the classic on-off
pattern.  Element grouping shares one coefficient across rho neighboring
elements, cutting the training overhead to K(M/rho + 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDims, InvalidGrouping
from .phase_model import ReflectionModel, reflection_coefficient
from .system import ReflectionPattern, TrainingMatrix
from .types import SystemConfig

TWO_PI = 2.0 * np.pi


class SchemeId(enum.Enum):
    PROPOSED = "proposed"
    IDEAL_RIS = "ideal"
    IDEAL_RIS_PROJECTION = "ideal-projection"
    NAIVE = "naive"
    ON_OFF = "onoff"
    PROPOSED_GROUPED = "proposed-grouped"


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


def start_pattern(config: SystemConfig, model: ReflectionModel,
                  init: ReflectionPattern | None) -> np.ndarray:
    """The (M+1, B) start of an MM design: init's pattern, or else the naive one."""
    if init is None:
        return naive_pattern(config.m, config.b, model).v
    if init.v.shape != (config.m + 1, config.b):
        raise DimensionMismatch(f"init pattern {init.v.shape} is not the config's (M+1) x B")
    return init.v


def dft_training(k: int, tau: int, power) -> TrainingMatrix:
    """Scaled DFT columns: x_k = sqrt(P_k) d_k / ||d_k||, so X X^H = diag(P)."""
    if tau < k:
        raise InvalidDims(f"tau must be >= k ({tau} < {k})")
    power = np.asarray(power, dtype=float)
    if power.shape != (k,):
        raise InvalidDims("power must have one entry per UE")
    idx = np.arange(tau)
    dft = np.exp(-2j * np.pi * np.outer(idx, idx) / tau)
    x = (np.sqrt(power)[:, None] / np.sqrt(tau)) * dft[:, :k].T
    return TrainingMatrix(x=x, power=power)


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

    def indicator(self) -> np.ndarray:
        """(M, M_grouped) 0/1 membership matrix."""
        out = np.zeros((self.m, self.m_grouped))
        for g in range(self.m_grouped):
            out[g * self.rho : (g + 1) * self.rho, g] = 1.0
        return out

    def combine_gamma(self, gamma: np.ndarray, k: int) -> np.ndarray:
        """Sum the cascaded-channel blocks of each group (direct block kept).

        Leading (trial) axes of gamma broadcast.
        """
        *lead, l, _ = gamma.shape
        blocks = gamma[..., : self.m * k].reshape(*lead, l, self.m_grouped, self.rho, k)
        out = np.empty((*lead, l, (self.m_grouped + 1) * k), dtype=complex)
        out[..., : self.m_grouped * k] = blocks.sum(axis=-2).reshape(*lead, l, -1)
        out[..., self.m_grouped * k :] = gamma[..., self.m * k :]
        return out


def group_reduce(m: int, rho: int) -> ElementGrouping:
    """Grouped dimensions and expansion map; rho must divide M."""
    if rho < 1 or m % rho != 0:
        raise InvalidGrouping(f"rho={rho} must be a positive divisor of m={m}")
    return ElementGrouping(m=m, rho=rho)
