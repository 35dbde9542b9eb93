"""Tests for tools/bench_json.py on two synthetic perfbench/out directories."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "numpy_blas": "openblas",
               "blas_threads": "1", "nproc": 2, "seconds": 30.0}


def write_run(out: Path, workload: str, seed: int, trace: int, revision: str,
              metrics: dict, correct: bool = True) -> None:
    """One result file as perfbench/run.py writes it."""
    record = {
        "environment": {**ENVIRONMENT, "git_revision": revision, "seed": seed},
        "detail": {},
        "result": {"correct": correct, "attempted": 10, "failed": 0,
                   "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()}},
    }
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


PARENT_LS = [10.0, 20.0, 30.0, 40.0, 50.0]
CHANGE_LS = [9.0, 21.0, 25.0, 35.0, 50.0]     # lower in 3 pairs, higher in 1, tied in 1


@pytest.fixture
def outputs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, (p, c) in enumerate(zip(PARENT_LS, CHANGE_LS), start=1):
        write_run(parent, "design-paper", seed, 0, "aaa", {"ls_rel.p50": p, "setup_s": 0.5})
        write_run(change, "design-paper", seed, 0, "bbb", {"ls_rel.p50": c, "setup_s": 0.5})
    layer = "phase_model.minimize_phase_objectives.self_frac"
    write_run(parent, "design-paper", 1, 1, "aaa", {layer: 0.34})
    write_run(change, "design-paper", 1, 1, "bbb", {layer: 0.2})
    # design-desk shares no untraced seed between the two sides.
    write_run(parent, "design-desk", 1, 0, "aaa", {"ls_rel.p50": 1.0})
    write_run(change, "design-desk", 2, 0, "bbb", {"ls_rel.p50": 1.0})
    return parent, change, tmp_path / "bench.json"


def test_pairs_medians_quartiles_and_wins(outputs, tmp_path, monkeypatch, capsys):
    parent, change, target = outputs
    monkeypatch.chdir(tmp_path)   # BENCHMARK.json is found from the script, not the cwd
    assert bench_json.main([str(parent), str(change), str(target)]) == 0
    out = json.loads(target.read_text())

    entry = out["design-paper"]
    assert entry["correct"] is True and entry["failed"] == {"parent": 0, "change": 0}
    assert entry["environment"]["parent"]["git_revision"] == "aaa"
    assert entry["environment"]["change"]["seeds"] == [1, 2, 3, 4, 5]
    ls = entry["end_to_end"]["ls_rel.p50"]
    assert ls["better"] == "lower" and ls["bound"] == 0.2
    assert [p["seed"] for p in ls["pairs"]] == [1, 2, 3, 4, 5]
    assert ls["parent"] == {"median": 30.0, "q1": 15.0, "q3": 45.0}
    assert ls["change"] == {"median": 25.0, "q1": 15.0, "q3": 42.5}
    q1, _, q3 = statistics.quantiles(CHANGE_LS, n=4)
    assert (ls["change"]["q1"], ls["change"]["q3"]) == (q1, q3)
    assert ls["change_wins"] == 3
    assert entry["end_to_end"]["setup_s"]["change_wins"] == 0   # all tied
    assert "peak_rss_mb" not in entry["end_to_end"]              # in no record

    traced = entry["traced_seed1"]
    assert traced["parent"]["git_revision"] == "aaa"
    assert traced["change"]["layers"] == {"phase_model.minimize_phase_objectives.self_frac": 0.2}

    assert "design-desk" not in out
    assert "design-desk" in capsys.readouterr().err


def test_incorrect_run_marks_the_workload(outputs):
    parent, change, target = outputs
    write_run(change, "design-paper", 3, 0, "bbb", {"ls_rel.p50": 25.0}, correct=False)
    assert bench_json.main([str(parent), str(change), str(target)]) == 0
    assert json.loads(target.read_text())["design-paper"]["correct"] is False
