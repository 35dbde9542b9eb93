"""Tests for the sweep/convergence harness and the command-line interface."""

import re

import numpy as np
import pytest

import risce
from risce.baselines import SchemeId
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
from risce.ls_design import DEFAULT_EPS, design_ls, dft_training
from risce.phase_model import DEFAULT_GRID_POINTS, ReflectionModel

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
        assert cfg.grid_points == DEFAULT_GRID_POINTS


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
        r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
        designs: dict = {}
        cells = [experiments._design_cell(SchemeId.PROPOSED, cfg, snr, r_gamma, designs)
                 for snr in cfg.snr_db]
        assert cells[0].pattern is cells[1].pattern
        for cell, snr in zip(cells, cfg.snr_db):
            want = dft_training(cfg.k, cfg.tau, cfg.power(snr))
            np.testing.assert_array_equal(cell.training.x, want.x)
            np.testing.assert_array_equal(cell.training.power, want.power)

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
        # Non-default eps, max_iter and grid_points must all reach the design.
        cfg = ExperimentConfig(**FAST, estimator=estimator, eps=1e-6, max_iter=7,
                               grid_points=17)
        rows = run_convergence(cfg)
        sys_cfg = cfg.system(cfg.snr_db[0])
        r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
        opts = dict(eps=cfg.eps, max_iter=cfg.max_iter, grid_points=cfg.grid_points)
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
        ["--grid-points", "1"], ["--max-iter", "-1"],
        ["--scheme", "proposed", "--grid-points", "1"],
    ])
    def test_bad_value_is_config_error(self, flag):
        rc = main(["sweep", "--analytic-only", "--scheme", "naive", *flag])
        assert rc == 2

    # sigma2 is fixed at 1 (power is SNR * sigma2), so it is no config key.
    @pytest.mark.parametrize("line", ["mm = 3", "k = two", "accelerate = maybe",
                                      "sigma2 = 1"])
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
            "--grid-points", "--rho", "--output", "--analytic-only", "--plot-data",
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
    def test_extreme_snr_lmmse_sweep_is_numerical_failure(self, tmp_path, snr_db, accel):
        # an LMMSE NMSE below 1e-10 is lost to rounding, so no row is written
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--analytic-only", "--estimator", "lmmse",
                   "--snr-db", snr_db, accel, "--output", str(out)])
        assert rc == 3
        assert not out.exists()

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
