"""Tests for tools/same_outputs.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_first_difference_names_the_first_differing_row():
    old = [["a", "b"], ["1", "2"], ["3", "4"], ["5", "6"]]
    assert same_outputs.first_difference(old, [row[:] for row in old]) is None
    new = [["a", "b"], ["1", "2"], ["3", "4.0"], ["5", "7"]]
    assert same_outputs.first_difference(old, new) == (
        "row 2:\n  parent: 3,4\n  change: 3,4.0")


def test_first_difference_counts_a_missing_row():
    old = [["a"], ["1"]]
    assert same_outputs.first_difference(old, old[:1]) == (
        "row 1:\n  parent: 1\n  change: <missing>")


def test_rows_drop_wall_ms():
    rows = same_outputs.csv_rows(ROOT, ("converge", "--estimator", "ls"))
    assert "wall_ms" not in rows[0] and "objective" in rows[0]
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


def test_wrong_arguments_exit_2():
    assert same_outputs.main(["only-one"]) == 2
