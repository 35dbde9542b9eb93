"""Benchmark workloads: inputs, one pass of operations, and output checks.

Every workload builds its inputs once (the set-up that ``setup_s`` times)
and then repeats passes.  A pass is a fixed list of operations; each
operation calls the public functions of risce, and its output is checked
without any stored reference, so the checks hold for every seed.  An
operation whose kind belongs to the "ls" or "lmmse" part of the pass adds
its time to that part; the SQUAREM kinds are attempted and checked in every
pass, but their time is kept out of those two parts, so the parts keep the
same mix whether or not SQUAREM operations succeed.

Operations call risce through module attributes (``risce.design_ls``,
``experiments.run_sweep``), never through names bound here, so that the
traced run sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import risce
from risce import (
    CorrelationSpec,
    ReflectionModel,
    SystemConfig,
    build_S,
    cascaded_correlation,
    cli,
    dft_training,
    exp_correlation,
    experiments,
    naive_pattern,
    onoff_pattern,
)

# Relative agreement of an empirical NMSE with its independent rebuild.
REBUILD_RTOL = 1e-8
# Slack of the analytic scheme orderings, as in acceptance criterion c5.
ORDER_TIE = 1e-6
# Relative rise of an MM objective trace that is still rounding.
TRACE_RISE_RTOL = 1e-12

# Design-desk instances: fixed, so that a pass costs the same for every seed.
DESK_INSTANCE_SEED = 20240328
DESK_INSTANCES = 12
DESK_SNR_DB = (-5.0, 0.0, 5.0, 10.0)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    part is "ls" or "lmmse" when the operation's time counts toward that
    part of the pass time, and None for the SQUAREM kinds.
    """

    kind: str
    part: str | None
    run: Callable[[], object]
    check: Callable[[object], None]


def _sweep_config(*args: str) -> experiments.ExperimentConfig:
    """The configuration `risce sweep <args>` would run."""
    return cli.build_config(cli.make_parser().parse_args(["sweep", *args]))


def _sweep(cfg, csv_path: str):
    """What `risce sweep` does after parsing: run the sweep, write its CSV."""
    rows = experiments.run_sweep(cfg)
    cli.write_csv(csv_path, experiments.RESULT_COLUMNS, rows)
    return rows


def _reproduces(reference: dict, key, value) -> None:
    """Require value to equal the first value seen under key, bit for bit."""
    first = reference.setdefault(key, value)
    if first != value:
        raise CheckFailed(f"{key}: a re-run did not reproduce the first output")


# --- mc-paper -----------------------------------------------------------------

def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(a)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


def rebuild_trial_nmse(cfg, s: np.ndarray, r_gamma: np.ndarray, si: int, trial: int) -> float:
    """Empirical NMSE of one trial, rebuilt with plain numpy.

    Draws the channel and the noise from the same SeedSequence streams the
    sweep uses, and estimates with numpy.linalg.lstsq (LS) or the direct
    LMMSE formula Y (S^H R S + sigma^2 L I)^{-1} S^H R.
    """
    k, m, l = cfg.k, cfg.m, cfg.l
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, si, trial, 0]))
    s_ue = _sqrt_psd(exp_correlation(k, cfg.psi_ue))
    s_ris = _sqrt_psd(exp_correlation(m, cfg.psi_ris))
    s_bs = _sqrt_psd(exp_correlation(l, cfg.psi_bs))
    h_r = s_ris @ _complex_gaussian(rng, (m, k)) @ s_ue.T
    g = s_bs @ _complex_gaussian(rng, (l, m)) @ s_ris.T
    h_d = s_bs @ _complex_gaussian(rng, (l, k)) @ s_ue.T
    gamma = np.hstack([np.outer(g[:, i], h_r[i]) for i in range(m)] + [h_d])

    noise = np.random.default_rng(np.random.SeedSequence([cfg.seed, si, trial, 1]))
    y = gamma @ s + np.sqrt(cfg.sigma2) * _complex_gaussian(noise, (l, s.shape[1]))
    if cfg.estimator == "ls":
        gamma_hat = np.linalg.lstsq(s.T, y.T, rcond=None)[0].T
    else:
        a = s.conj().T @ r_gamma @ s + cfg.sigma2 * l * np.eye(s.shape[1])
        gamma_hat = y @ np.linalg.solve(a, s.conj().T @ r_gamma)
    return float(np.sum(np.abs(gamma_hat - gamma) ** 2)) / (l * k * (m + 1))


def check_curve(rows, cfg, s_by_snr, r_gamma, si: int, trial: int) -> None:
    """Every (SNR, trial) row present and finite; one trial rebuilt."""
    expected = [(snr, t) for snr in cfg.snr_db for t in range(cfg.trials)]
    if [(r.snr_db, r.trial) for r in rows] != expected:
        raise CheckFailed("curve rows missing or out of order")
    values = [(r.analytic_nmse, r.empirical_nmse) for r in rows]
    if not np.all(np.isfinite(np.array(values, dtype=float))):
        raise CheckFailed("curve holds a non-finite NMSE")
    row = rows[si * cfg.trials + trial]
    want = rebuild_trial_nmse(cfg, s_by_snr[si], r_gamma, si, trial)
    if abs(row.empirical_nmse - want) > REBUILD_RTOL * abs(want):
        raise CheckFailed(
            f"trial ({cfg.snr_db[si]} dB, {trial}): NMSE {row.empirical_nmse!r} "
            f"but the rebuilt estimate gives {want!r}")


def mc_paper(seed: int, out_dir: Path) -> tuple[Op, ...]:
    """Design-free Monte Carlo curves at the paper profile."""
    ops = []
    reference: dict = {}
    for scheme in ("naive", "onoff"):
        for estimator in ("ls", "lmmse"):
            cfg = _sweep_config("--profile", "paper", "--scheme", scheme,
                                "--estimator", estimator, "--seed", str(seed))
            r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
            pattern = (naive_pattern(cfg.m, cfg.b, cfg.model) if scheme == "naive"
                       else onoff_pattern(cfg.m, cfg.b))
            s_by_snr = [build_S(pattern, dft_training(cfg.k, cfg.tau, cfg.power(snr)))
                        for snr in cfg.snr_db]
            kind = f"{scheme}-{estimator}"
            picks = np.random.default_rng([seed, len(ops)])
            run = partial(_sweep, cfg, str(out_dir / f"mc-{kind}.csv"))

            def check(rows, cfg=cfg, s_by_snr=s_by_snr, r_gamma=r_gamma,
                      picks=picks, kind=kind):
                si = int(picks.integers(len(cfg.snr_db)))
                trial = int(picks.integers(cfg.trials))
                check_curve(rows, cfg, s_by_snr, r_gamma, si, trial)
                _reproduces(reference, kind, [(r.snr_db, r.trial, r.analytic_nmse,
                                               r.empirical_nmse) for r in rows])

            ops.append(Op(kind, estimator, run, check))
    return tuple(ops)


# --- design-paper -------------------------------------------------------------

def check_orderings(rows, estimator: str) -> None:
    """Analytic scheme orderings of acceptance criterion c5, per SNR."""
    nmse = {(r.scheme, r.snr_db): r.analytic_nmse for r in rows}
    snrs = sorted({r.snr_db for r in rows})
    schemes = ("proposed", "ideal", "ideal-projection", "naive", "onoff")
    if len(rows) != len(nmse) or set(nmse) != {(s, snr) for s in schemes for snr in snrs}:
        raise CheckFailed("sweep rows missing or duplicated")
    if not np.all(np.isfinite(list(nmse.values()))):
        raise CheckFailed("sweep holds a non-finite NMSE")
    tie = 1.0 + ORDER_TIE
    for snr in snrs:
        prop, proj, naive, onoff = (nmse[(s, snr)] for s in
                                    ("proposed", "ideal-projection", "naive", "onoff"))
        if estimator == "ls":
            ordered = prop <= proj * tie and proj <= naive * tie and naive < onoff
        else:
            ordered = prop <= proj * tie and proj < naive
        if not ordered:
            raise CheckFailed(f"{estimator} scheme ordering broken at {snr} dB")


def design_paper(seed: int, out_dir: Path) -> tuple[Op, ...]:
    """Analytic-only paper-profile sweeps of all five schemes; seed-free."""
    ops = []
    reference: dict = {}
    for variant in ("mm", "squarem"):
        for estimator in ("ls", "lmmse"):
            accel = "--accel" if variant == "squarem" else "--no-accel"
            cfg = _sweep_config("--profile", "paper", "--analytic-only",
                                "--estimator", estimator, accel)
            kind = f"{estimator}-{variant}"
            run = partial(_sweep, cfg, str(out_dir / f"design-{kind}.csv"))

            def check(rows, estimator=estimator, kind=kind):
                check_orderings(rows, estimator)
                _reproduces(reference, kind,
                            [(r.scheme, r.snr_db, r.analytic_nmse, r.iterations) for r in rows])

            ops.append(Op(kind, estimator if variant == "mm" else None, run, check))
    return tuple(ops)


# --- design-desk --------------------------------------------------------------

def desk_instances() -> list[tuple[SystemConfig, ReflectionModel]]:
    """The fixed desk instances: K=2, M=8, L=4 over the reflection-law ranges.

    beta_min in [0, 0.5], alpha in [1, 3], delta in [0, 2 pi); the SNRs cycle
    through DESK_SNR_DB so each appears equally often.
    """
    rng = np.random.default_rng(DESK_INSTANCE_SEED)
    out = []
    for i in range(DESK_INSTANCES):
        model = ReflectionModel(beta_min=rng.uniform(0.0, 0.5), alpha=rng.uniform(1.0, 3.0),
                                delta=rng.uniform(0.0, 2.0 * np.pi))
        power = np.full(2, 10.0 ** (DESK_SNR_DB[i % len(DESK_SNR_DB)] / 10.0))
        out.append((SystemConfig(k=2, m=8, l=4, power=power), model))
    return out


def check_descent(trace) -> None:
    """The objective trace never rises and ends finite, at or below its start."""
    obj = np.asarray(trace.objectives, dtype=float)
    if obj.size == 0 or not np.all(np.isfinite(obj)):
        raise CheckFailed("objective trace empty or not finite")
    rise = np.diff(obj) - TRACE_RISE_RTOL * np.abs(obj[:-1])
    if np.any(rise > 0.0) or obj[-1] > obj[0]:
        raise CheckFailed(f"objective trace rises (max step {np.max(np.diff(obj), initial=0.0):.3e})")


def _design_trace(estimator: str, config, model, r_gamma, accelerate: bool):
    """Design one desk instance as `risce converge` does; return its trace."""
    if estimator == "ls":
        return risce.design_ls(config, model, accelerate=accelerate)[1]
    return risce.design_lmmse(config, model, r_gamma, accelerate=accelerate)[2]


def design_desk(seed: int, out_dir: Path) -> tuple[Op, ...]:
    """Plain-MM and SQUAREM designs of the fixed desk instances; seed-free."""
    r_gamma = cascaded_correlation(CorrelationSpec(), 8, 2, 4)
    ops = []
    reference: dict = {}
    for i, (config, model) in enumerate(desk_instances()):
        for variant in ("mm", "squarem"):
            for estimator in ("ls", "lmmse"):
                run = partial(_design_trace, estimator, config, model, r_gamma,
                              variant == "squarem")

                def check(trace, key=(i, estimator, variant)):
                    check_descent(trace)
                    _reproduces(reference, key, (trace.objectives, trace.update_calls))

                ops.append(Op(f"{estimator}-{variant}",
                              estimator if variant == "mm" else None, run, check))
    return tuple(ops)


WORKLOADS = {"mc-paper": mc_paper, "design-paper": design_paper, "design-desk": design_desk}
