"""Tests for tools/ab_time.py."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
ab_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_time)


def test_each_tree_loads_as_its_own_package():
    try:
        a, b = ab_time.load(ROOT, "risce_ab_a"), ab_time.load(ROOT, "risce_ab_b")
        assert a.phase_model is not b.phase_model
        assert a.phase_model._tables is not b.phase_model._tables   # separate caches
        assert a.design_ls.__module__ == "risce_ab_a.ls_design"
    finally:
        for name in [n for n in sys.modules if n.startswith("risce_ab_")]:
            del sys.modules[name]


def test_tiny_run_reports_every_operation():
    try:
        sides = [ab_time.operations(ab_time.load(ROOT, name), "desk", 1)
                 for name in ("risce_ab_a", "risce_ab_b")]
        lines = ab_time.report(ab_time.run_pairs(sides, 2, 1))
    finally:
        for name in [n for n in sys.modules if n.startswith("risce_ab_")]:
            del sys.modules[name]
    names = [line.split()[0] for line in lines[1:]]
    sweeps, desk = ([f"{kind}-{est}-{variant}" for est in ("ls", "lmmse")
                     for variant in ("mm", "squarem")] for kind in ("sweep", "desk"))
    assert names == sweeps + ["mc-ls", "mc-lmmse"] + desk + ["total"]
    for line in lines[1:]:
        fields = line.split()
        q1, median, q3 = map(float, fields[3:6])
        assert 0.0 < q1 <= median <= q3
        assert fields[-2:] == ["of", "2"] and 0 <= int(fields[-3]) <= 2
