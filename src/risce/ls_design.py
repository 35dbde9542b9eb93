"""LS-criterion design: orthogonal DFT training and MM pattern optimization.

For the LS estimator the optimal training decouples from the pattern and any
X with X X^H = diag(P) is optimal; DFT columns scaled to the power budgets
are used.  The pattern minimizes f(V) = Tr[(V V^H)^{-1}] by MM: at expansion
point V0 the quadratic surrogate is

    f(V; V0) = lambda1 Tr[V V^H] + 2 Re{Tr[A0 V]} + const(V0),
    lambda1  = 3 Tr[(V0 V0^H)^{-1}]^2,
    A0       = -V0^H (V0 V0^H)^{-2} - lambda1 V0^H,

which separates over entries; each entry reduces to a scalar phase search
with q = lambda1 and c = [A0]_{n,m}.  The step reads only the minimizer, so
const(V0) is never built.  Plain MM and SQUAREM both score every iterate V0
by :func:`ls_score`, one checked (lam, U) = eigh(V0 V0^H) that gives
Tr[(V0 V0^H)^{-1}] = sum 1/lam and anchors the update at V0 on
W = (U / lam^2)(U^H V0).  The MM descent argument needs the bound only on
the sublevel set f(V) <= f(V0); f is unbounded near rank-deficient V, so no
quadratic majorizes it on the whole feasible set.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .accel import mm_loop, plain_step, squarem_step
from .baselines import naive_pattern
from .errors import DimensionMismatch, InvalidDims
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


def ls_score(v: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Tr[(V V^H)^{-1}] = sum 1/lam of the (M+1, B) v, and the checked (lam, U) = eigh(V V^H)."""
    lam, u = numerics.conditioned_eigh(v @ v.conj().T)
    return float(np.sum(1.0 / lam)), (lam, u)


def ls_surrogate(v0: np.ndarray, spectrum) -> tuple[float, np.ndarray]:
    """(lambda1, A0 of shape (B, M+1)) of the MM surrogate at v0, from its (lam, U) of ls_score."""
    lam, u = spectrum
    lambda1 = 3.0 * float(np.sum(1.0 / lam)) ** 2
    # W = (V0 V0^H)^{-2} V0 = U diag(lam^-2) U^H V0, so A0 = -W^H - lambda1 V0^H.
    w = (u / lam**2) @ (u.conj().T @ v0)
    return lambda1, -w.conj().T - lambda1 * v0.conj().T


def mm_update_ls(v: np.ndarray, model: ReflectionModel, spectrum) -> np.ndarray:
    """One MM iteration on the (M+1, B) matrix v of the given spectrum: minimize its surrogate."""
    lambda1, a0 = ls_surrogate(v, spectrum)
    # Entry (m, n) minimizes lambda1 |v|^2 + 2 Re{[A0]_{n,m} v}.
    return minimize_pattern_entries(lambda1, a0[:, :-1].T, model)


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

    Starts from the naive projected-DFT pattern unless an init is given
    (DimensionMismatch unless it is (M+1, B)); stops when the relative
    objective change drops below eps.  The trace records the objective per
    iteration (non-increasing) and the cumulative number of MM updates.  The
    MM iterates are bare (M+1, B) arrays; only the init and the result are
    ReflectionPatterns.
    """
    if init is None:
        init = naive_pattern(config.m, config.b, model)
    elif init.v.shape != (config.m + 1, config.b):
        raise DimensionMismatch(f"init pattern {init.v.shape} is not the config's (M+1) x B")
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER_ACCEL if accelerate else DEFAULT_MAX_ITER_PLAIN

    if accelerate:
        def step(v, obj, spectrum):
            return squarem_step(v, obj, spectrum, lambda u, eig: mm_update_ls(u, model, eig),
                                lambda u: project_pattern(u, model), ls_score)
    else:
        step = plain_step(lambda v, eig: mm_update_ls(v, model, eig), ls_score)
    v_star, trace = mm_loop(init.v, step, ls_score, eps, max_iter)
    return ReflectionPattern(v=v_star), trace
