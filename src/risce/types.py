"""Shared configuration and diagnostics containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDims


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and physical parameters of the uplink training problem.

    k single-antenna UEs, m RIS elements, l BS antennas, b training subframes
    of tau symbols each.  power holds the per-UE budgets P_k; sigma2 is the
    noise variance (SNR_k = P_k / sigma2).
    """

    k: int
    m: int
    l: int
    b: int | None = None
    tau: int | None = None
    sigma2: float = 1.0
    power: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.b is None:
            object.__setattr__(self, "b", self.m + 1)
        if self.tau is None:
            object.__setattr__(self, "tau", self.k)
        if self.power is None:
            object.__setattr__(self, "power", np.ones(self.k))
        else:
            object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if min(self.k, self.m, self.l) < 1:
            raise InvalidDims("k, m, l must all be >= 1")
        if self.tau < self.k:
            raise InvalidDims(f"tau must be >= k ({self.tau} < {self.k})")
        if self.b < self.m + 1:
            raise InvalidDims(f"b must be >= m + 1 ({self.b} < {self.m + 1})")
        if self.power.shape != (self.k,):
            raise InvalidDims("power must have one entry per UE")
        if not (np.all(np.isfinite(self.power)) and np.isfinite(self.sigma2)):
            raise InvalidDims("power budgets and sigma2 must be finite")
        if np.any(self.power <= 0.0) or self.sigma2 < 0.0:
            raise InvalidDims("power budgets must be positive, sigma2 >= 0")


@dataclass
class DesignTrace:
    """Per-iteration convergence diagnostics of a pattern/training design.

    objectives[0] is the value at the initial point; update_calls counts the
    cumulative MM updates at each recorded iterate (0 at the start, then 1 per
    plain iteration and 2 per SQUAREM block step; an LMMSE update is one
    surrogate rebuild), and elapsed_s the cumulative wall time.
    """

    objectives: list[float] = field(default_factory=list)
    update_calls: list[int] = field(default_factory=list)
    elapsed_s: list[float] = field(default_factory=list)
    converged: bool = False

    def record(self, objective: float, calls: int, elapsed: float) -> None:
        self.objectives.append(float(objective))
        self.update_calls.append(int(calls))
        self.elapsed_s.append(float(elapsed))

    @property
    def iterations(self) -> int:
        return max(len(self.objectives) - 1, 0)

    @property
    def total_updates(self) -> int:
        return self.update_calls[-1] if self.update_calls else 0
