"""The MM driver shared by all designs, and the monotone SQUAREM step.

:func:`mm_loop` repeats a step ``step(iterate, obj) -> (iterate, obj,
mm_calls)`` until the relative objective change drops below eps, recording
a :class:`DesignTrace`.  Every design runs on it with one of two kinds of
step: plain MM (:func:`plain_step`, one MM update per iteration) or SQUAREM
(:func:`squarem_step`, two MM updates per block step).

One SQUAREM step takes two MM updates V1, V2 from the current point V0, forms
the differences L1 = V1 - V0, L2 = V2 - V1 - L1, picks the Cauchy-Barzilai-
Borwein step length l = -||L1||_F / ||L2||_F and extrapolates to

    V_cand = project(V0 - 2 l L1 + l^2 L2).

Back-tracking (l <- (l - 1)/2) keeps the objective monotone; l = -1 recovers
the plain MM point V2 when the projection is inactive.
"""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple

import numpy as np

from .types import DesignTrace

DEGENERATE_STEP_TOL = 1e-14
MAX_BACKTRACKS = 50

MmUpdate = Callable[[np.ndarray], np.ndarray]
Project = Callable[[np.ndarray], np.ndarray]
Objective = Callable[[np.ndarray], float]
Step = Callable[[Any, float], tuple[Any, float, int]]


class SquaremStep(NamedTuple):
    """Accepted iterate of one SQUAREM step, its objective and MM-update count."""

    iterate: np.ndarray
    objective: float
    mm_calls: int


def squarem_step(
    v0: np.ndarray,
    mm_update: MmUpdate,
    project: Project,
    objective: Objective,
    objective_v0: float | None = None,
) -> SquaremStep:
    """One monotone SQUAREM step.

    mm_update must be monotone for the objective and project idempotent.
    Near an MM fixed point (||L2||_F below DEGENERATE_STEP_TOL) the plain MM
    point V2 is returned directly; after MAX_BACKTRACKS halvings the step also
    falls back to V2, whose objective is safe by MM monotonicity.
    """
    v1 = mm_update(v0)
    v2 = mm_update(v1)
    l1 = v1 - v0
    l2 = v2 - v1 - l1
    norm_l2 = np.linalg.norm(l2)
    if norm_l2 < DEGENERATE_STEP_TOL:
        return SquaremStep(v2, objective(v2), 2)

    if objective_v0 is None:
        objective_v0 = objective(v0)
    step = -np.linalg.norm(l1) / norm_l2
    for _ in range(MAX_BACKTRACKS + 1):
        cand = project(v0 - 2.0 * step * l1 + step**2 * l2)
        obj = objective(cand)
        if obj <= objective_v0:
            return SquaremStep(cand, obj, 2)
        step = (step - 1.0) / 2.0
    return SquaremStep(v2, objective(v2), 2)


def plain_step(mm_update: Callable[[Any], Any], objective: Callable[[Any], float]) -> Step:
    """Plain MM as a driver step: one update, then its objective."""

    def step(iterate, _obj: float):
        iterate = mm_update(iterate)
        return iterate, objective(iterate), 1

    return step


def mm_loop(
    initial,
    step: Step,
    objective: Callable[[Any], float],
    eps: float,
    max_iter: int,
) -> tuple[Any, DesignTrace]:
    """Run step until the relative objective change drops below eps.

    The trace holds the objective at the initial point and after every step,
    the cumulative MM-update count and the elapsed time; it is non-increasing
    when the step is monotone.  converged is False when the budget runs out
    (the last iterate is still returned); a step from 0 to 0 has converged.
    """
    trace = DesignTrace()
    start = time.perf_counter()
    iterate = initial
    obj = objective(iterate)
    calls = 0
    trace.record(obj, calls, time.perf_counter() - start)
    for _ in range(max_iter):
        iterate, new_obj, used = step(iterate, obj)
        calls += used
        trace.record(new_obj, calls, time.perf_counter() - start)
        if abs(new_obj - obj) < eps * abs(obj) or new_obj == obj == 0.0:
            trace.converged = True
            break
        obj = new_obj
    return iterate, trace
