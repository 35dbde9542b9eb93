"""Write a BENCH_<nnn>.json from the perfbench result files of two checkouts.

    python3 tools/bench_json.py PARENT_OUT CHANGE_OUT OUTPUT

PARENT_OUT and CHANGE_OUT are the ``perfbench/out`` directories of a parent
and a change checkout, each holding the ``<workload>-seed<n>-trace<t>.json``
files that ``perfbench/run.py`` writes.  A pair is one seed run untraced on
both sides.  Per workload the output holds, for every end-to-end metric of
``BENCHMARK.json``, each pair's values, each side's median and quartiles and
the number of pairs the change won (ties count for neither side); the
environment of each side (revision, seeds, BLAS threads, library versions);
and, where both sides have a traced seed-1 run, its per-layer metrics
(``.calls``, ``.self_frac`` and the other counts).  The metrics come from the
``BENCHMARK.json`` at the root of the checkout that holds this script, so it
runs from any directory.  A workload with no untraced seed run on both sides
is left out, with a note on standard error.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load(out_dir: Path) -> dict[tuple[str, int, int], dict]:
    """Result records by (workload, seed, trace)."""
    runs = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        match = NAME.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def environment(records: list[dict], seeds: list[int]) -> dict:
    env = records[0]["environment"]
    keep = ("git_revision", "python", "numpy", "scipy", "numpy_blas", "blas_threads", "nproc")
    return {**{k: env[k] for k in keep}, "seeds": seeds, "seconds": env["seconds"]}


def workload_entry(workload: str, seeds: list[int], parent: dict, change: dict,
                   metrics: list[dict]) -> dict:
    pairs = [(parent[(workload, s, 0)]["result"], change[(workload, s, 0)]["result"])
             for s in seeds]
    entry = {
        "environment": {
            side: environment([runs[(workload, s, 0)] for s in seeds], seeds)
            for side, runs in (("parent", parent), ("change", change))},
        "correct": all(r["correct"] for pair in pairs for r in pair),
        "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                   "change": sum(c["failed"] for _, c in pairs)},
        "end_to_end": {},
    }
    for spec in metrics:
        name = spec["name"]
        both = [(s, p["metrics"][name]["value"], c["metrics"][name]["value"])
                for s, (p, c) in zip(seeds, pairs) if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        sign = 1.0 if spec["better"] == "lower" else -1.0
        entry["end_to_end"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "pairs": [{"seed": s, "parent": p, "change": c} for s, p, c in both],
            "parent": summary([p for _, p, _ in both]),
            "change": summary([c for _, _, c in both]),
            "change_wins": sum(sign * (c - p) < 0.0 for _, p, c in both),
        }
    traced = {side: runs.get((workload, 1, 1)) for side, runs in (("parent", parent),
                                                                   ("change", change))}
    if all(traced.values()):
        entry["traced_seed1"] = {
            side: {"git_revision": rec["environment"]["git_revision"],
                   "correct": rec["result"]["correct"], "failed": rec["result"]["failed"],
                   "layers": {k: v["value"] for k, v in rec["result"]["metrics"].items()}}
            for side, rec in traced.items()}
    return entry


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = {}
    for w in sorted({w for (w, _, _) in parent} | {w for (w, _, _) in change}):
        seeds = sorted(s for (v, s, t) in parent if v == w and t == 0 and (v, s, t) in change)
        if seeds:
            out[w] = workload_entry(w, seeds, parent, change, metrics)
        else:
            print(f"bench_json: {w}: no untraced seed run on both sides; left out",
                  file=sys.stderr)
    Path(argv[2]).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
