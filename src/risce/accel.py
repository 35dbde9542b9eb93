"""The MM driver shared by all designs, and the monotone SQUAREM step.

:func:`mm_loop` scores the initial point once, by ``score(iterate) ->
(objective, spectrum)``, and repeats a step ``step(iterate, obj, spectrum) ->
(iterate, obj, spectrum, mm_calls)`` until the relative objective change drops
below eps, recording a :class:`DesignTrace`.  Every MM update
``mm_update(iterate, spectrum)`` gets the spectrum of the iterate it receives.
The step is plain MM (:func:`plain_step`, one update per iteration) or SQUAREM
(:func:`squarem_step`, two per block step).  Iterates are bare arrays (the LS
pattern, or the LMMSE (X, V) pair); the designs build their pattern and
training types for the result only.

One SQUAREM step takes two MM updates V1, V2 from the current point V0, forms
the differences L1 = V1 - V0, L2 = V2 - V1 - L1, picks the Cauchy-Barzilai-
Borwein step length l = -||L1||_F / ||L2||_F and extrapolates to

    V_cand = project(V0 - 2 l L1 + l^2 L2).

Back-tracking (l <- (l - 1)/2) keeps the objective monotone; l = -1 recovers
the plain MM point V2 when the projection is inactive.  DEFAULT_EPS and
:func:`round_budget` are the defaults of the stop rule both designs run.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from .types import DesignTrace

DEFAULT_EPS = 1e-3
DEGENERATE_STEP_TOL = 1e-14
MAX_BACKTRACKS = 50

MmUpdate = Callable[[Any, Any], Any]
Score = Callable[[Any], tuple[float, Any]]
Step = Callable[[Any, float, Any], tuple[Any, float, Any, int]]


def squarem_step(
    v0: np.ndarray,
    obj0: float,
    spectrum0,
    mm_update: MmUpdate,
    project: Callable[[np.ndarray], np.ndarray],
    score: Score,
) -> tuple[np.ndarray, float, Any, int]:
    """One monotone SQUAREM step from v0, of objective obj0 and spectrum spectrum0.

    Returns the accepted iterate, its objective and spectrum, and the
    MM-update count (2).  mm_update must be monotone for the objective and
    project idempotent.  Near an MM fixed point (||L2||_F below
    DEGENERATE_STEP_TOL) the plain MM point V2 is returned directly; after
    MAX_BACKTRACKS halvings the step also falls back to V2, whose objective
    is safe by MM monotonicity.
    """
    v1 = mm_update(v0, spectrum0)
    v2 = mm_update(v1, score(v1)[1])
    l1 = v1 - v0
    l2 = v2 - v1 - l1
    norm_l2 = np.linalg.norm(l2)
    if norm_l2 < DEGENERATE_STEP_TOL:
        return v2, *score(v2), 2

    step = -np.linalg.norm(l1) / norm_l2
    for _ in range(MAX_BACKTRACKS + 1):
        cand = project(v0 - 2.0 * step * l1 + step**2 * l2)
        obj, spectrum = score(cand)
        if obj <= obj0:
            return cand, obj, spectrum, 2
        step = (step - 1.0) / 2.0
    return v2, *score(v2), 2


def plain_step(mm_update: MmUpdate, score: Score) -> Step:
    """Plain MM as a driver step: one MM update, then one score of the new iterate."""
    def step(iterate, _obj: float, spectrum):
        iterate = mm_update(iterate, spectrum)
        return iterate, *score(iterate), 1

    return step


def round_budget(max_iter: int | None, accelerate) -> int:
    """max_iter, or else the default budget: 100 SQUAREM rounds, 500 plain MM rounds."""
    return (100 if accelerate else 500) if max_iter is None else max_iter


def mm_loop(
    initial,
    step: Step,
    score: Score,
    eps: float,
    max_iter: int,
) -> tuple[Any, DesignTrace]:
    """Run step from the scored initial point until the relative objective change drops below eps.

    The trace holds the objective at the initial point and after every step,
    the cumulative MM-update count and the elapsed time; it is non-increasing
    when the step is monotone.  converged is False when the budget runs out
    (the last iterate is still returned); a step from 0 to 0 has converged.
    """
    trace = DesignTrace()
    start = time.perf_counter()
    iterate = initial
    obj, spectrum = score(iterate)
    calls = 0
    trace.record(obj, calls, time.perf_counter() - start)
    for _ in range(max_iter):
        iterate, new_obj, spectrum, used = step(iterate, obj, spectrum)
        calls += used
        trace.record(new_obj, calls, time.perf_counter() - start)
        if abs(new_obj - obj) < eps * abs(obj) or new_obj == obj == 0.0:
            trace.converged = True
            break
        obj = new_obj
    return iterate, trace
