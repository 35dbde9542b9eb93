"""Paired timing of two checkouts of risce in one process.

    python3 tools/ab_time.py PARENT_ROOT CHANGE_ROOT [--pairs N] [--repeats N]

Both trees' ``src/risce`` load side by side as two packages (``risce_parent``
and ``risce_change``): ``risce`` imports its own modules relatively, so each
package keeps its own modules and caches.  Each pair runs every operation
on both trees, parent first in even pairs and change first in odd ones, so
load drift on the machine hits both sides alike; a side's time is the least
of --repeats back-to-back runs (3 by default), which damps short bursts of
load from elsewhere.  The operations are the public-API work of the
benchmark's design workloads:

* the four ``--analytic-only`` sweeps of all five schemes at the paper
  profile (LS and LMMSE, plain MM and SQUAREM), as ``risce sweep`` runs them;
* the two simulated sweeps of the design-free ``naive`` and ``onoff``
  schemes at the paper profile (``mc-ls`` and ``mc-lmmse``), the Monte Carlo
  path that the benchmark's ``mc-paper`` workload runs;
* the design-desk designs (``K=2, M=8, L=4``, the instances that
  ``perfbench/workloads.py``'s ``desk_instances()`` returns), one operation
  per estimator and variant, each designing every instance.

Every operation runs once per tree before the timed pairs, to warm the
caches.  The report gives, per operation and for their sum, the median
times, the quartiles of the change-over-parent time ratio over the pairs,
and in how many pairs the change was faster.  BLAS threads are whatever the
environment sets; set ``OPENBLAS_NUM_THREADS=1`` to match the benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import DESK_INSTANCES, desk_instances  # noqa: E402


def load(root: Path, name: str):
    """Import the risce package under root/src as a top-level package called name."""
    src = Path(root).resolve() / "src" / "risce"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "experiments"):
        importlib.import_module(f"{name}.{module}")
    return package


def operations(pkg, profile: str, instances: int) -> dict:
    """name -> zero-argument callable, for one loaded package: sweeps at profile, desk instances."""
    def sweep(*argv: str):
        args = pkg.cli.make_parser().parse_args(["sweep", "--profile", profile, *argv])
        return partial(pkg.experiments.run_sweep, pkg.cli.build_config(args))

    ops = {}
    for est in ("ls", "lmmse"):
        for variant, flag in (("mm", "--no-accel"), ("squarem", "--accel")):
            ops[f"sweep-{est}-{variant}"] = sweep("--analytic-only", "--estimator", est, flag)
    for est in ("ls", "lmmse"):
        ops[f"mc-{est}"] = sweep("--scheme", "naive,onoff", "--estimator", est)
    # The benchmark's instances, rebuilt in this package's own types.
    desk = [(pkg.SystemConfig(**vars(config)), pkg.ReflectionModel(**vars(model)))
            for config, model in desk_instances()[:instances]]
    r_gamma = pkg.cascaded_correlation(pkg.CorrelationSpec(), 8, 2, 4)

    def designs(est: str, accelerate: bool):
        for config, model in desk:
            if est == "ls":
                pkg.design_ls(config, model, accelerate=accelerate)
            else:
                pkg.design_lmmse(config, model, r_gamma, accelerate=accelerate)

    for est in ("ls", "lmmse"):
        for variant in ("mm", "squarem"):
            ops[f"desk-{est}-{variant}"] = partial(designs, est, variant == "squarem")
    return ops


def timed(fn, repeats: int) -> float:
    """The least wall time of repeats calls of fn."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_pairs(sides: list[dict], pairs: int, repeats: int) -> dict[str, np.ndarray]:
    """name -> (pairs, 2) seconds of [parent, change], the order flipped per pair."""
    names = list(sides[0])
    for ops in sides:   # warm each package's caches
        for name in names:
            ops[name]()
    times = {name: np.zeros((pairs, 2)) for name in names}
    for p in range(pairs):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        for name in names:
            for side in order:
                times[name][p, side] = timed(sides[side][name], repeats)
    return times


def report(times: dict[str, np.ndarray]) -> list[str]:
    """One line per operation and one for their sum: medians, ratio quartiles, lower-in count."""
    rows = dict(times, total=sum(times.values()))
    lines = [f"{'operation':<20} {'parent ms':>10} {'change ms':>10} "
             f"{'ratio q1':>9} {'median':>7} {'q3':>7}  lower"]
    for name, t in rows.items():
        ratio = t[:, 1] / t[:, 0]
        q1, q2, q3 = np.percentile(ratio, [25, 50, 75])
        parent_ms, change_ms = 1e3 * np.median(t, axis=0)
        lower = int(np.sum(t[:, 1] < t[:, 0]))
        lines.append(f"{name:<20} {parent_ms:10.2f} {change_ms:10.2f} "
                     f"{q1:9.3f} {q2:7.3f} {q3:7.3f}  {lower} of {len(t)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3, help="runs per side and pair")
    args = parser.parse_args(argv)
    if min(args.pairs, args.repeats) < 1:
        parser.error("--pairs and --repeats must be >= 1")
    sides = [operations(load(root, f"risce_{side}"), "paper", DESK_INSTANCES)
             for root, side in ((args.parent, "parent"), (args.change, "change"))]
    print("\n".join(report(run_pairs(sides, args.pairs, args.repeats))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
