"""LS-criterion design: orthogonal DFT training and MM pattern optimization.

For the LS estimator the optimal training decouples from the pattern and any
X with X X^H = diag(P) is optimal; DFT columns scaled to the power budgets
are used.  The pattern minimizes f(V) = Tr[(V V^H)^{-1}] by MM: at expansion
point V0 the quadratic surrogate is

    f(V; V0) = lambda1 Tr[V V^H] + 2 Re{Tr[A0 V]} + const(V0),
    lambda1  = 3 Tr[(V0 V0^H)^{-1}]^2,
    A0       = -V0^H (V0 V0^H)^{-2} - lambda1 V0^H,

which separates over entries; each entry reduces to a scalar phase search
with q = lambda1 and c = [A0]_{n,m}.  lambda1 is refreshed every iteration.
The MM descent argument needs the bound only on the sublevel set
f(V) <= f(V0); f is unbounded near rank-deficient V, so no quadratic
majorizes it on the whole feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .accel import mm_loop, plain_step, squarem_step
from .baselines import naive_pattern
from .errors import InvalidDims
from .phase_model import (
    ReflectionModel,
    minimize_pattern_entries,
    minimize_phase_objectives,  # noqa: F401  perfbench/selftest.py checks the tracer rebinds it here
    project_to_feasible,
)
from .system import ReflectionPattern, TrainingMatrix
from .types import DesignTrace, SystemConfig

DEFAULT_EPS = 1e-3
DEFAULT_MAX_ITER_PLAIN = 500
DEFAULT_MAX_ITER_ACCEL = 100


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


@dataclass(frozen=True)
class LsSurrogate:
    """Coefficients of the quadratic upper bound at one expansion point."""

    lambda1: float
    a0: np.ndarray       # (B, M+1)
    const_term: float

    def value(self, v: np.ndarray) -> float:
        """Surrogate value at pattern matrix v."""
        quad = self.lambda1 * float(np.sum(np.abs(v) ** 2))
        lin = 2.0 * float(np.real(np.sum(self.a0 * v.T)))
        return quad + lin + self.const_term


def ls_surrogate(pattern: ReflectionPattern) -> LsSurrogate:
    """Build the MM surrogate of Tr[(V V^H)^{-1}] at the given pattern."""
    v0 = pattern.v
    gram = v0 @ v0.conj().T
    trace_inv = numerics.trace_of_inverse(gram)
    lambda1 = 3.0 * trace_inv**2
    # W = (V0 V0^H)^{-2} V0, so A0 = -W^H - lambda1 V0^H.
    w = numerics.solve_hpd(gram, numerics.solve_hpd(gram, v0))
    a0 = -w.conj().T - lambda1 * v0.conj().T
    const = (
        trace_inv
        + lambda1 * float(np.sum(np.abs(v0) ** 2))
        + 2.0 * float(np.real(np.sum(np.conj(v0) * w)))
    )
    return LsSurrogate(lambda1=lambda1, a0=a0, const_term=const)


def mm_update_ls(
    pattern: ReflectionPattern,
    model: ReflectionModel,
) -> ReflectionPattern:
    """One MM iteration: rebuild the surrogate, minimize it entrywise."""
    sur = ls_surrogate(pattern)
    # Entry (m, n) minimizes lambda1 |v|^2 + 2 Re{[A0]_{n,m} v}.
    c = sur.a0[:, :pattern.m].T
    return ReflectionPattern(v=minimize_pattern_entries(sur.lambda1, c, model))


def ls_objective(v: np.ndarray) -> float:
    """Pattern-design objective Tr[(V V^H)^{-1}] of the (M+1, B) matrix v."""
    return numerics.trace_of_inverse(v @ v.conj().T)


def project_pattern(v: np.ndarray, model: ReflectionModel) -> np.ndarray:
    """Entrywise reflection-law projection; the direct-link row stays 1."""
    out = np.asarray(project_to_feasible(v, model), dtype=complex)
    out[-1] = 1.0
    return out


def design_ls(
    config: SystemConfig,
    model: ReflectionModel,
    init: ReflectionPattern | None = None,
    eps: float = DEFAULT_EPS,
    max_iter: int | None = None,
    accelerate: bool = False,
) -> tuple[ReflectionPattern, DesignTrace]:
    """Minimize Tr[(V V^H)^{-1}] over feasible patterns by (accelerated) MM.

    Starts from the naive projected-DFT pattern unless an init is given;
    stops when the relative objective change drops below eps.  The trace
    records the objective per iteration (non-increasing) and the cumulative
    number of MM updates.
    """
    if init is None:
        init = naive_pattern(config.m, config.b, model)
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER_ACCEL if accelerate else DEFAULT_MAX_ITER_PLAIN

    def mm(v: np.ndarray) -> np.ndarray:
        return mm_update_ls(ReflectionPattern(v=v), model).v

    if accelerate:
        def step(v, obj):
            return squarem_step(v, mm, lambda u: project_pattern(u, model),
                                ls_objective, obj)
    else:
        step = plain_step(mm, ls_objective)
    v_star, trace = mm_loop(init.v, step, ls_objective, eps, max_iter)
    return ReflectionPattern(v=v_star), trace
