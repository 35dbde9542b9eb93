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
    new = [["a", "b"], ["1", "2"], ["3", "4.5"], ["5", "7"]]
    assert same_outputs.first_difference(old, new) == (
        "row 2:\n  parent: 3,4\n  change: 3,4.5")


def test_report_counts_every_differing_row_and_finds_each_columns_largest():
    # The second differing row holds the larger difference; text and the
    # exact iterations column are reported too, and a matching column is not.
    old = [["scheme", "iterations", "nmse", "objective"], ["a", "3", "0.5", "1"],
           ["b", "4", "0.25", "2"], ["c", "5", "0.125", "3"], ["d", "6", "1", "4"]]
    new = [["scheme", "iterations", "nmse", "objective"], ["a", "3", "0.5", "1"],
           ["b", "4", "0.2500001", "2"], ["x", "5", "0.126", "3"], ["d", "7", "1", "4"]]
    assert same_outputs.difference_report(old, [row[:] for row in old]) is None
    assert same_outputs.difference_report(old, new) == "\n".join([
        "row 2:\n  parent: b,4,0.25,2\n  change: b,4,0.2500001,2",
        "differing rows: 3",
        "  scheme: largest relative difference inf at row 3: c -> x",
        "  iterations: largest relative difference 0.14 at row 4: 6 -> 7",
        "  nmse: largest relative difference 0.0079 at row 3: 0.125 -> 0.126"])


def test_first_difference_counts_a_missing_row():
    old = [["a"], ["1"]]
    assert same_outputs.first_difference(old, old[:1]) == (
        "row 1:\n  parent: 1\n  change: <missing>")


def _printed(*values):
    return [f"{v:.12g}" for v in values]


def test_numbers_straddling_a_print_boundary_match():
    # 2e-15 apart, but rounded to 12 digits on either side of ...1785
    old, new = _printed(0.0709708852178500 * (1 - 1e-15), 0.0709708852178500 * (1 + 1e-15))
    assert (old, new) == ("0.0709708852178", "0.0709708852179")
    header = ["scheme", "analytic_nmse"]
    assert same_outputs.first_difference([header, ["proposed", old]],
                                         [header, ["proposed", new]]) is None
    # a number's printed form does not matter, only its value
    assert same_outputs.same_field("objective", "4", "4.0")


def test_numbers_1e10_apart_differ():
    header = ["objective"]
    for value in (1.0, 0.0709708852178, 38.6556894589):
        old, new = _printed(value, value * (1 + 1e-10))
        assert same_outputs.first_difference([header, [old]], [header, [new]]) == (
            f"row 1:\n  parent: {old}\n  change: {new}")


def test_iterations_and_text_compare_exactly():
    assert not same_outputs.same_field("iterations", "12", "12.0")
    assert same_outputs.same_field("iterations", "12", "12")
    assert not same_outputs.same_field("estimator", "ls", "lmmse")
    assert not same_outputs.same_field("objective", "nan", "inf")
    assert same_outputs.first_difference([["a"], ["1"]], [["b"], ["1"]]) == (
        "row 0:\n  parent: a\n  change: b")


def test_rows_drop_wall_ms():
    rows = same_outputs.csv_rows(ROOT, ("converge", "--estimator", "ls"))
    assert "wall_ms" not in rows[0] and "objective" in rows[0]
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


def test_wrong_arguments_exit_2():
    assert same_outputs.main(["only-one"]) == 2


def test_runs_include_a_backtracking_squarem_converge():
    # Seventeen distinct runs; at 60 dB a desk LMMSE SQUAREM step back-tracks.
    assert len(set(same_outputs.RUNS)) == len(same_outputs.RUNS) == 17
    assert ("converge", "--estimator", "lmmse", "--snr-db", "60") in same_outputs.RUNS


def test_runs_include_simulated_sweeps_of_every_scheme():
    # Both estimators simulate every scheme at the desk profile, grouping
    # included, and the design-free schemes at the paper profile.
    simulated = [run for run in same_outputs.RUNS
                 if run[0] == "sweep" and "--analytic-only" not in run and "--b" not in run]
    assert len(simulated) == 4
    for profile, schemes in (("desk", {"proposed", "proposed-grouped", "ideal",
                                       "ideal-projection", "naive", "onoff"}),
                             ("paper", {"naive", "onoff"})):
        for est in ("ls", "lmmse"):
            [run] = [r for r in simulated if r[2] == profile and r[4] == est]
            assert set(run[run.index("--scheme") + 1].split(",")) == schemes


def test_runs_include_non_square_simulated_sweeps():
    # B = 10 > M + 1 = 9 and tau = 3 > K = 2 at the desk profile: V and X are
    # not square, so W_LS is a pseudo-inverse, for both estimators.
    non_square = [run for run in same_outputs.RUNS if "--b" in run]
    assert sorted(run[run.index("--estimator") + 1] for run in non_square) == ["lmmse", "ls"]
    for run in non_square:
        assert "--analytic-only" not in run and run[run.index("--profile") + 1] == "desk"
        assert run[run.index("--b") + 1] == "10" and run[run.index("--tau") + 1] == "3"
        assert set(run[run.index("--scheme") + 1].split(",")) == {"proposed", "naive"}


def test_runs_include_the_paper_sweeps_at_beta_min_zero():
    # The proposed scheme's paper analytic sweeps at beta_min = 0, where
    # pattern entries at theta_d are 0: both estimators, plain and SQUAREM.
    zero = [run for run in same_outputs.RUNS if "--beta-min" in run]
    assert sorted((run[run.index("--estimator") + 1], *(a for a in run if a.endswith("accel")))
                  for run in zero) == [
        ("lmmse", "--accel"), ("lmmse", "--no-accel"), ("ls", "--accel"), ("ls", "--no-accel")]
    for run in zero:
        assert run[:4] == ("sweep", "--profile", "paper", "--analytic-only")
        assert run[run.index("--beta-min") + 1] == "0" and run[run.index("--scheme") + 1] == "proposed"
