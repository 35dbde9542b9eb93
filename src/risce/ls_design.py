"""LS-criterion design: the LS objective, its MM surrogate and step, and :func:`design_ls`.

For the LS estimator the optimal training decouples from the pattern and any
X with X X^H = diag(P) is optimal, so the design leaves the training at
:func:`~risce.baselines.dft_training`.  The pattern minimizes
f(V) = Tr[(V V^H)^{-1}] by MM: at expansion point V0 the quadratic surrogate is

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
quadratic majorizes it on the whole feasible set.  The start, the stop
rule's defaults, the direct-link row and the projection are shared with the
LMMSE design and owned by :mod:`~risce.baselines`, :mod:`~risce.accel` and
:mod:`~risce.phase_model`.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .accel import DEFAULT_EPS, mm_loop, plain_step, round_budget, squarem_step
from .baselines import start_pattern
from .phase_model import (
    ReflectionModel,
    minimize_pattern_entries,
    minimize_phase_objectives,  # noqa: F401  perfbench/selftest.py checks the tracer rebinds it here
    project_pattern,
)
from .system import ReflectionPattern
from .types import DesignTrace, SystemConfig


def ls_score(v: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Tr[(V V^H)^{-1}] = sum 1/lam of the (M+1, B) v, and the checked (lam, U) = eigh(V V^H)."""
    [(lam, u)] = numerics.conditioned_eigh(v @ v.conj().T)
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
    return minimize_pattern_entries(lambda1, a0.T, model, v)


def design_ls(
    config: SystemConfig,
    model: ReflectionModel,
    init: ReflectionPattern | None = None,
    eps: float = DEFAULT_EPS,
    max_iter: int | None = None,
    accelerate: bool = False,
) -> tuple[ReflectionPattern, DesignTrace]:
    """Minimize Tr[(V V^H)^{-1}] over feasible patterns by (accelerated) MM.

    Starts from :func:`~risce.baselines.start_pattern` (init, or else the
    naive pattern); stops when the relative objective change drops below eps,
    or after :func:`~risce.accel.round_budget` rounds.  The trace records the
    objective per iteration (non-increasing) and the cumulative number of MM
    updates.  The MM iterates are bare (M+1, B) arrays; only the init and the
    result are ReflectionPatterns.
    """
    if accelerate:
        def step(v, obj, spectrum):
            return squarem_step(v, obj, spectrum, lambda u, eig: mm_update_ls(u, model, eig),
                                lambda u: project_pattern(u, model), ls_score)
    else:
        step = plain_step(lambda v, eig: mm_update_ls(v, model, eig), ls_score)
    v_star, trace = mm_loop(start_pattern(config, model, init), step, ls_score, eps,
                            round_budget(max_iter, accelerate))
    return ReflectionPattern(v=v_star), trace
