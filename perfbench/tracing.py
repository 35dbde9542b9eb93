"""Span tracing of calls into risce, recorded from outside the package.

A :class:`Tracer` replaces each listed public function by a timing wrapper
in every ``risce`` module namespace that holds it, so calls made through a
name imported with ``from .x import f`` are traced as well as calls made
through the defining module.  Spans (name, parent, start, end, error) are
kept in memory; self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Functions timed by the traced run, as "<module>.<name>" inside risce.
TRACED = (
    "channel.sample_channels",
    "channel.cascaded_channel",
    "channel.cascaded_correlation",
    "system.simulate_reception",
    "system.estimate_ls",
    "system.estimate_lmmse",
    "system.mse_lmmse",
    "numerics.solve_hpd",
    "numerics.trace_of_inverse",
    "numerics.largest_eigenvalue",
    "phase_model.minimize_phase_objectives",
    "phase_model.project_to_feasible",
    "ls_design.design_ls",
    "ls_design.mm_update_ls",
    "ls_design.ls_surrogate",
    "lmmse_design.design_lmmse",
    "lmmse_design.build_surrogate",
    "lmmse_design.refresh_pattern_terms",
    "lmmse_design.update_pattern",
    "lmmse_design.update_training",
    "accel.squarem_step",
    "baselines.naive_pattern",
    "baselines.onoff_pattern",
    "experiments.run_sweep",
    "cli.write_csv",
)

# Functions reported with calls only; their self time is negligible.
CALLS_ONLY = ("channel.cascaded_correlation", "phase_model.project_to_feasible")

# The objectives SQUAREM evaluates: LS designs pass a lambda around
# trace_of_inverse, LMMSE designs one around mse_lmmse.
SQUAREM_OBJECTIVES = ("numerics.trace_of_inverse", "system.mse_lmmse")


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's.

    spans is a sequence of (name, parent, start, end, ...) with parent the
    index of the enclosing span or -1.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[1]
        if parent >= 0:
            child_time[parent] += span[3] - span[2]
    return [span[3] - span[2] - child_time[i] for i, span in enumerate(spans)]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, parent, start, end, error]
        self.eig_iterations = 0            # summed PowerIterationResult.iterations
        self.phase_entries = 0             # summed (q, c) pairs searched
        self.design_traces: list = []      # DesignTrace of every returned design
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result) -> None:
        if name == "numerics.largest_eigenvalue":
            self.eig_iterations += result.iterations
        elif name == "phase_model.minimize_phase_objectives":
            self.phase_entries += len(result[0])
        elif name == "ls_design.design_ls":
            self.design_traces.append(result[1])
        elif name == "lmmse_design.design_lmmse":
            self.design_traces.append(result[2])

    def wrap(self, name: str, fn):
        """Timing wrapper of fn that records one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            self._observe(name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function in all risce namespaces holding it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "risce" or key.startswith("risce.")]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"risce.{module_name}"], attr)
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def layer_metrics(self, passes: int, op_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: counts per pass, self time as a share of op_s.

        op_s is the time the traced operations ran in total.
        """
        selfs = self_times(self.spans)
        calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        for span, own in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_s[span[0]] += own
        steps, objective_evals = 0, 0
        for span in self.spans:
            if span[0] == "accel.squarem_step":
                steps += 1
            elif span[0] in SQUAREM_OBJECTIVES and span[1] >= 0 \
                    and self.spans[span[1]][0] == "accel.squarem_step":
                objective_evals += 1

        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            if name not in CALLS_ONLY:
                out[f"{name}.self_frac"] = (self_s[name] / op_s, "frac")
        eig_calls = calls["numerics.largest_eigenvalue"]
        out["numerics.largest_eigenvalue.iters_per_call"] = (
            self.eig_iterations / eig_calls if eig_calls else 0.0, "count")
        out["phase_model.minimize_phase_objectives.entries"] = (
            self.phase_entries / passes, "count")
        out["accel.squarem_step.objective_evals_per_step"] = (
            objective_evals / steps if steps else 0.0, "count")
        traces = self.design_traces
        out["design.iterations"] = (sum(t.iterations for t in traces) / passes, "count")
        out["design.mm_updates"] = (sum(t.total_updates for t in traces) / passes, "count")
        out["design.converged_frac"] = (
            sum(t.converged for t in traces) / len(traces) if traces else 0.0, "frac")
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON: names once, then one row per span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps({
            "columns": ["name", "parent", "start_s", "end_s", "error"],
            "names": names,
            "spans": rows,
        }))
