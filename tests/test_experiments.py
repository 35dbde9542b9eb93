"""Tests for the sweep/convergence harness and the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risce
from risce.accel import DEFAULT_EPS
from risce.baselines import SchemeId, dft_training
from risce import experiments
from risce.channel import CorrelationSpec, cascaded_correlation
from risce.cli import main, read_config_file
from risce.errors import ConfigError
from risce.experiments import (
    ExperimentConfig,
    run_convergence,
    run_sweep,
    run_validation,
)
from risce.lmmse_design import design_lmmse
from risce.ls_design import design_ls
from risce.phase_model import ReflectionModel

FAST = dict(k=2, m=3, l=2, trials=3, snr_db=(0.0, 10.0), accelerate=True)


class TestExperimentConfig:
    def test_defaults_fill_b_and_tau(self):
        cfg = ExperimentConfig(**FAST)
        assert cfg.b == 4 and cfg.tau == 2

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(estimator="map")
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(k=2, m=3, b=3)
        with pytest.raises(ConfigError):
            ExperimentConfig(k=2, m=3, tau=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(m=8, rho=3, schemes=(SchemeId.PROPOSED_GROUPED,))
        with pytest.raises(ConfigError):
            ExperimentConfig(m=3, b=5, schemes=(SchemeId.ON_OFF,))

    def test_power_from_snr(self):
        cfg = ExperimentConfig(**FAST)
        assert np.allclose(cfg.power(10.0), 10.0)

    def test_defaults_come_from_their_owners(self):
        cfg = ExperimentConfig()
        assert cfg.model == ReflectionModel()
        assert cfg.corr == CorrelationSpec()
        assert cfg.eps == DEFAULT_EPS


class TestRunSweep:
    def test_row_order_and_determinism(self):
        cfg = ExperimentConfig(**FAST, seed=3,
                               schemes=(SchemeId.PROPOSED, SchemeId.NAIVE))
        rows_a = run_sweep(cfg)
        rows_b = run_sweep(cfg)
        assert len(rows_a) == 2 * 2 * 3
        keys = [(r.scheme, r.snr_db, r.trial) for r in rows_a]
        assert keys == sorted(
            keys, key=lambda t: (["proposed", "naive"].index(t[0]), t[1], t[2])
        )
        # byte-identical modulo wall-clock timing
        for a, b in zip(rows_a, rows_b):
            assert (a.scheme, a.snr_db, a.trial) == (b.scheme, b.snr_db, b.trial)
            assert a.analytic_nmse == b.analytic_nmse
            assert a.empirical_nmse == b.empirical_nmse
            assert a.iterations == b.iterations

    def test_common_draws_across_schemes(self):
        # the same (snr, trial) cell uses identical channel/noise draws for
        # every scheme, so equal designs give exactly equal empirical values
        cfg = ExperimentConfig(**FAST, seed=5,
                               schemes=(SchemeId.NAIVE, SchemeId.NAIVE))
        rows = run_sweep(cfg)
        half = len(rows) // 2
        for a, b in zip(rows[:half], rows[half:]):
            assert a.empirical_nmse == b.empirical_nmse

    def test_analytic_only_mode(self):
        cfg = ExperimentConfig(**FAST, simulate=False,
                               schemes=(SchemeId.PROPOSED,))
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(r.empirical_nmse is None for r in rows)

    def test_empirical_tracks_analytic(self):
        cfg = ExperimentConfig(k=2, m=3, l=2, trials=400, snr_db=(0.0,),
                               seed=7, schemes=(SchemeId.NAIVE,))
        rows = run_sweep(cfg)
        emp = np.mean([r.empirical_nmse for r in rows])
        assert emp == pytest.approx(rows[0].analytic_nmse, rel=0.1)

    def test_grouped_scheme_runs(self):
        cfg = ExperimentConfig(k=2, m=4, l=2, trials=2, snr_db=(0.0,), rho=2,
                               schemes=(SchemeId.PROPOSED_GROUPED,),
                               estimator="lmmse")
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(np.isfinite(r.analytic_nmse) for r in rows)

    @pytest.mark.parametrize("estimator, designs", [("ls", 1), ("lmmse", 2)])
    def test_each_distinct_design_runs_once(self, monkeypatch, estimator, designs):
        # ideal-projection projects the ideal design, so a sweep of both at
        # two SNRs runs one LS design, or one LMMSE design per SNR.
        calls = []

        def counted(name):
            real = getattr(experiments, name)

            def run(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return run

        for name in ("design_ls", "design_lmmse"):
            monkeypatch.setattr(experiments, name, counted(name))
        cfg = ExperimentConfig(k=2, m=3, l=2, trials=2, snr_db=(0.0, 10.0),
                               estimator=estimator, schemes=(
                                   SchemeId.IDEAL_RIS, SchemeId.IDEAL_RIS_PROJECTION))
        rows = run_sweep(cfg)
        assert calls == [f"design_{estimator}"] * designs
        ideal = [r.iterations for r in rows if r.scheme == "ideal"]
        assert ideal == [r.iterations for r in rows if r.scheme == "ideal-projection"]

    def test_ls_pattern_paired_with_each_snr_training(self):
        # One LS pattern serves every SNR; each cell pairs it with the DFT
        # training of its own power budget, not the one it was designed at.
        cfg = ExperimentConfig(**FAST)
        designs: dict = {}
        cells = [experiments._design_cell(SchemeId.PROPOSED, cfg, snr, designs, {})
                 for snr in cfg.snr_db]
        assert cells[0].pattern is cells[1].pattern
        for cell, snr in zip(cells, cfg.snr_db):
            want = dft_training(cfg.k, cfg.tau, cfg.power(snr))
            np.testing.assert_array_equal(cell.training.x, want.x)
            np.testing.assert_array_equal(cell.training.power, want.power)

    def test_ls_nmse_falls_as_one_over_power_at_1600_db(self):
        # X X^H holds entries near 1e160 at 1600 dB; no kernel squares them,
        # so the analytic LS NMSE is 1e-10 times the 1500 dB one.
        cfg = ExperimentConfig(schemes=(SchemeId.NAIVE, SchemeId.PROPOSED),
                               snr_db=(1500.0, 1600.0), simulate=False)
        nmse = {(r.scheme, r.snr_db): r.analytic_nmse for r in run_sweep(cfg)}
        for scheme in ("naive", "proposed"):
            assert nmse[(scheme, 1600.0)] == pytest.approx(
                1e-10 * nmse[(scheme, 1500.0)], rel=1e-12)

    def test_lmmse_estimator_path(self):
        cfg = ExperimentConfig(**FAST, estimator="lmmse",
                               schemes=(SchemeId.PROPOSED, SchemeId.NAIVE))
        rows = run_sweep(cfg)
        by = {(r.scheme, r.snr_db): r.analytic_nmse for r in rows}
        for snr in (0.0, 10.0):
            assert by[("proposed", snr)] <= by[("naive", snr)] + 1e-12


class TestRunConvergence:
    def test_traces_non_increasing_and_deterministic(self):
        cfg = ExperimentConfig(**FAST)
        rows = run_convergence(cfg)
        variants = {r.variant for r in rows}
        assert variants == {"mm", "accelerated"}
        for variant in variants:
            objs = [r.objective for r in rows if r.variant == variant]
            assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        rows_b = run_convergence(cfg)
        assert [r.objective for r in rows] == [r.objective for r in rows_b]

    def test_accelerated_uses_fewer_updates_to_reach_plain_level(self):
        cfg = ExperimentConfig(k=2, m=6, l=4, trials=1, snr_db=(0.0,))
        rows = run_convergence(cfg)
        plain = [r for r in rows if r.variant == "mm"]
        acc = [r for r in rows if r.variant == "accelerated"]
        target = plain[-1].objective * (1 + 1e-3)
        reached = [r.updates for r in acc if r.objective <= target]
        assert reached and reached[0] < plain[-1].updates


    @pytest.mark.parametrize("estimator", ["ls", "lmmse"])
    def test_variants_are_the_configured_designs(self, estimator):
        # Non-default eps and max_iter must both reach the design.
        cfg = ExperimentConfig(**FAST, estimator=estimator, eps=1e-6, max_iter=7)
        rows = run_convergence(cfg)
        sys_cfg = cfg.system(cfg.snr_db[0])
        r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
        opts = dict(eps=cfg.eps, max_iter=cfg.max_iter)
        for variant, accelerate in (("mm", False), ("accelerated", True)):
            if estimator == "ls":
                _, trace = design_ls(sys_cfg, cfg.model, accelerate=accelerate, **opts)
            else:
                _, _, trace = design_lmmse(sys_cfg, cfg.model, r_gamma,
                                           accelerate=accelerate, **opts)
            got = [r for r in rows if r.variant == variant]
            assert [r.objective for r in got] == trace.objectives
            assert [r.updates for r in got] == trace.update_calls


class TestValidation:
    def test_all_checks_pass_on_defaults(self):
        cfg = ExperimentConfig(**FAST)
        checks = run_validation(cfg)
        failed = [name for name, ok, _ in checks if not ok]
        assert not failed, f"failed checks: {failed}"


class TestCli:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--k", "2", "--m", "3", "--l", "2", "--trials", "2",
            "--snr-db", "0", "--scheme", "naive,onoff", "--seed", "1",
            "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,estimator,snr_db,trial,analytic_nmse,empirical_nmse,iterations,wall_ms"
        assert len(lines) == 1 + 2 * 2

    def test_sweep_output_deterministic_except_wall(self, tmp_path):
        args = ["sweep", "--k", "2", "--m", "3", "--l", "2", "--trials", "2",
                "--snr-db", "0", "5", "--scheme", "naive", "--seed", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        strip = lambda p: [",".join(line.split(",")[:-1])
                           for line in p.read_text().splitlines()]
        assert strip(out1) == strip(out2)

    def test_config_file_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# comment\n"
            "m = 3\n"
            "l = 2\n"
            "snr-db = 0, 5\n"
            "schemes = naive\n"
            "trials = 2\n"
        )
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfgfile), "--k", "2",
                   "--trials", "1", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2  # trials overridden to 1, two SNRs

    @pytest.mark.parametrize("flag", ["--output", "--plot-data"])
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "out.dat"
        # With --output twice, the last one is the CSV's path.
        rc = main(["sweep", "--analytic-only", "--scheme", "naive", "--output", "-",
                   flag, str(path)])
        assert rc == 2
        assert f"config error: cannot write {path}" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_every_snr_checked_before_the_sweep(self, capsys, snr_db):
        # Listed second, the bad SNR is still a config error before any
        # design: 10 ** 400 overflows, and 10 ** -400 is a zero budget.
        rc = main(["sweep", "--analytic-only", "--scheme", "naive",
                   "--snr-db", "0", snr_db, "--output", "-"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("config error:")

    @pytest.mark.parametrize("command", ["sweep", "design"])
    def test_empty_scheme_list_is_a_config_error(self, capsys, command):
        # "," names no scheme: design would index an empty tuple, and a sweep
        # would write a header-only CSV.
        rc = main([command, "--scheme", ",", "--output", "-"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("config error:") and "schemes" in captured.err

    def test_empty_schemes_line_in_config_file_is_a_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("m = 3\nschemes =\n")
        assert main(["sweep", "--config", str(cfgfile), "--output", "-"]) == 2
        assert "schemes must not be empty" in capsys.readouterr().err

    def test_bad_config_file_reports_line(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("m = 3\nwhat\n")
        rc = main(["sweep", "--config", str(cfgfile), "--output", "-"])
        assert rc == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("mm = 3\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 2
        with pytest.raises(ConfigError):
            read_config_file(str(cfgfile))

    def test_bad_scheme_is_config_error(self):
        rc = main(["sweep", "--scheme", "bogus", "--trials", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flag", [
        ["--beta-min", "2"], ["--alpha", "-1"], ["--psi-bs", "nan"],
        ["--psi-ue", "1.5"], ["--k", "0"], ["--eps", "nan"],
        ["--b", "3"], ["--tau", "1", "--k", "2"], ["--delta", "inf"],
        ["--snr-db", "0", "nan"], ["--scheme", "proposed-grouped", "--rho", "3"],
        ["--trials", "0"], ["--max-iter", "-1"], ["--seed", "-1"],
    ])
    def test_bad_value_is_config_error(self, flag):
        rc = main(["sweep", "--analytic-only", "--scheme", "naive", *flag])
        assert rc == 2

    # sigma2 is fixed at 1 (power is SNR * sigma2) and the phase-search grid
    # at GRID_POINTS, so neither is a config key.
    @pytest.mark.parametrize("line", ["mm = 3", "k = two", "accelerate = maybe",
                                      "sigma2 = 1", "grid_points = 64"])
    def test_bad_config_line_named(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"m = 3\n{line}\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 2
        assert "(line 2)" in capsys.readouterr().err

    def test_flag_set(self, capsys):
        # Every int/float config key is a flag of the same name.
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        flags = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert flags == {
            "-h", "--help", "--config", "--profile", "--k", "--m", "--l", "--b",
            "--tau", "--snr-db", "--trials", "--seed", "--beta-min",
            "--alpha", "--delta", "--psi-ue", "--psi-ris", "--psi-bs", "--scheme",
            "--estimator", "--accel", "--no-accel", "--eps", "--max-iter",
            "--rho", "--output", "--analytic-only", "--plot-data",
        }

    def test_converge_subcommand(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--k", "2", "--m", "3", "--l", "2",
                   "--snr-db", "0", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,iteration,objective,updates,wall_ms"
        assert len(lines) > 4

    def test_design_subcommand(self, tmp_path):
        out = tmp_path / "design.csv"
        rc = main(["design", "--k", "2", "--m", "3", "--l", "2",
                   "--snr-db", "0", "--scheme", "naive", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "matrix,row,col,re,im"
        # V is 4x4 and X is 2x2 at these dimensions
        assert len(lines) == 1 + 16 + 4

    def test_validate_subcommand(self, capsys):
        rc = main(["validate", "--k", "2", "--m", "3", "--l", "2",
                   "--snr-db", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_near_singular_correlation_fails_check(self, capsys):
        # R_Gamma is singular to working precision at psi = 1 - 1e-10, so the
        # direct form of the LMMSE MSE cannot be formed: that check fails
        # and validate exits as a numerical failure.
        psi = "0.9999999999"
        rc = main(["validate", "--psi-ue", psi, "--psi-ris", psi, "--psi-bs", psi])
        assert rc == 3
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL lmmse-mse-forms-agree direct form: Singular matrix" in lines

    def test_plot_data_emitter(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "plot.dat"
        rc = main(["sweep", "--k", "2", "--m", "3", "--l", "2", "--trials", "2",
                   "--snr-db", "0", "5", "--scheme", "naive",
                   "--output", str(out), "--plot-data", str(plot)])
        assert rc == 0
        text = plot.read_text()
        assert text.startswith("# naive ls")
        assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 2

    def test_analytic_only_flag(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--k", "2", "--m", "3", "--l", "2",
                   "--snr-db", "0", "--scheme", "naive", "--analytic-only",
                   "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[5] == ""  # empirical column empty

    @pytest.mark.parametrize("accel", ["--no-accel", "--accel"])
    def test_high_snr_lmmse_sweep_succeeds(self, tmp_path, accel):
        # the closed-form boundary rows meet their budgets only to rounding
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--analytic-only", "--estimator", "lmmse",
                   "--snr-db", "80", accel, "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        nmse = np.array([float(row.split(",")[4]) for row in rows])
        assert np.all(np.isfinite(nmse)) and np.all(nmse > 0.0)

    @pytest.mark.parametrize("snr_db", ["150", "300"])
    @pytest.mark.parametrize("accel", ["--no-accel", "--accel"])
    def test_extreme_snr_lmmse_sweep_runs(self, tmp_path, snr_db, accel):
        # the factored LMMSE MSE cancels nothing, so far above the noise every
        # row is finite and positive, and no scheme's NMSE rises from 80 dB
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--analytic-only", "--estimator", "lmmse",
                   "--snr-db", "80", snr_db, accel, "--output", str(out)])
        assert rc == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) == 5 * 2
        nmse = {(row[0], float(row[2])): float(row[4]) for row in rows}
        assert all(np.isfinite(v) and v > 0.0 for v in nmse.values())
        for scheme in {row[0] for row in rows}:
            assert nmse[(scheme, float(snr_db))] <= nmse[(scheme, 80.0)]

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_lmmse_snr_cut_is_where_the_pattern_step_overflows(self, capsys, profile):
        # Bisected over floats, the largest SNR whose LMMSE design accepts its
        # power designs both MM variants without a floating-point warning (an
        # error under pytest); the next float up is a config error.
        cfg = ExperimentConfig(**{"desk": {}, "paper": dict(k=4, m=20, l=16)}[profile])
        r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)

        def accepted(snr):
            try:
                design_lmmse(cfg.system(snr), cfg.model, r_gamma, max_iter=0)
            except ConfigError:
                return False
            return True

        lo, hi = 1000.0, 2000.0
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        args = ["sweep", "--profile", profile, "--analytic-only", "--estimator", "lmmse",
                "--scheme", "proposed,ideal", "--output", "-", "--snr-db"]
        for accel in ("--accel", "--no-accel"):
            assert main(args + [repr(lo), accel]) == 0
        assert main(args + [repr(hi)]) == 2
        assert "overflows the LMMSE design" in capsys.readouterr().err
        assert 1500.0 < lo < 1541.0

    def test_lmmse_snr_cut_spares_the_schemes_that_do_not_design(self):
        # naive and on-off cells never run the pattern step, and their
        # analytic LMMSE NMSE keeps its digits at any SNR.
        args = ["sweep", "--analytic-only", "--estimator", "lmmse", "--output", "-",
                "--snr-db", "1600", "--scheme"]
        assert main(args + ["naive,onoff"]) == 0
        assert main(args + ["naive,proposed"]) == 2

    @pytest.mark.parametrize("command", [["converge", "--estimator", "lmmse", "--scheme", "naive"],
                                         ["validate"]], ids=["converge", "validate"])
    def test_lmmse_snr_cut_holds_for_every_command_that_designs(self, command, capsys):
        # converge designs LMMSE whatever the schemes, and validate whatever
        # the estimator: past the cut each is a config error, not a warning.
        assert main(command + ["--snr-db", "1600", "--output", "-"]) == 2
        assert "overflows the LMMSE design" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["ls", "lmmse"])
    def test_near_singular_correlation_sweep(self, tmp_path, estimator):
        # psi = 1 - 1e-10 everywhere: the sweep either succeeds with every
        # NMSE finite and positive or is a numerical failure with no output.
        out = tmp_path / "sweep.csv"
        psi = "0.9999999999"
        rc = main(["sweep", "--estimator", estimator, "--psi-ue", psi,
                   "--psi-ris", psi, "--psi-bs", psi, "--trials", "2",
                   "--snr-db", "0", "10", "--output", str(out)])
        if rc == 3:
            assert not out.exists()
            return
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5 * 2 * 2
        nmse = np.array([[float(v) for v in row.split(",")[4:6]] for row in rows])
        assert np.all(np.isfinite(nmse)) and np.all(nmse > 0.0)

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--k", "2", "--m", "3", "--l", "2", "--trials", "1",
              "--snr-db", "0", "--scheme", "naive", "--output", str(out)])
        value = out.read_text().splitlines()[1].split(",")[4]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 10


def test_public_names_resolve():
    # Every name the package exports is importable from it.
    missing = [name for name in risce.__all__ if not hasattr(risce, name)]
    assert missing == []
    assert len(set(risce.__all__)) == len(risce.__all__)


def test_readme_quick_start_runs(capsys):
    # Every Python example in the README runs as written, each on its own.
    # The design example prints two finite, positive NMSEs; the Monte Carlo
    # one an empirical LS NMSE within 5% of the analytic one.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    values = [float(v) for v in re.findall(r"^(?:LS|LMMSE) NMSE: (\S+)$", out, flags=re.M)]
    assert len(values) == 2
    assert all(np.isfinite(v) and v > 0.0 for v in values)
    [(empirical, analytic)] = re.findall(
        r"^Monte Carlo LS NMSE: (\S+) analytic: (\S+)$", out, flags=re.M)
    assert float(empirical) == pytest.approx(float(analytic), rel=0.05)


_SCIPY_BLOCKED = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("blocked: " + name)
        return None

sys.meta_path.insert(0, BlockScipy())
from risce.cli import main
codes = [main(["validate"]),
         main(["sweep", "--estimator", "ls", "--trials", "3", "--output", sys.argv[1]]),
         main(["sweep", "--estimator", "lmmse", "--trials", "3", "--output", sys.argv[1]])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_risce_runs_with_scipy_unimportable(tmp_path):
    # risce's one runtime dependency is numpy.  With every scipy import made
    # to fail, validate and an LS and an LMMSE desk sweep still exit 0, and
    # no scipy module is loaded.  As in pytest, a RuntimeWarning is an error.
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED, str(tmp_path / "sweep.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
