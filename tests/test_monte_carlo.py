"""The Monte Carlo path of run_sweep: one estimator per cell, same numbers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risce import experiments, system
from risce.baselines import SchemeId
from risce.channel import cascaded_channel, cascaded_correlation, sample_channels
from risce.experiments import ExperimentConfig, run_sweep

DESK = dict(k=2, m=3, l=2, trials=4, snr_db=(0.0, 10.0), max_iter=5)
SCHEMES = (SchemeId.PROPOSED, SchemeId.NAIVE, SchemeId.ON_OFF)


def _counting(monkeypatch, name, calls, scale=1.0):
    real = getattr(system, name)

    def estimate(*args):
        calls.append(name)
        return real(*args) * scale
    monkeypatch.setattr(system, name, estimate)


@pytest.mark.parametrize("estimator", ["ls", "lmmse"])
def test_one_estimator_call_per_cell(monkeypatch, estimator):
    calls = []
    for name in ("estimate_ls", "estimate_lmmse"):
        _counting(monkeypatch, name, calls)
    cfg = ExperimentConfig(**DESK, estimator=estimator, schemes=SCHEMES)
    rows = run_sweep(cfg)
    assert len(rows) == len(SCHEMES) * len(cfg.snr_db) * cfg.trials
    assert calls == [f"estimate_{estimator}"] * (len(SCHEMES) * len(cfg.snr_db))


def test_replaced_ls_estimator_reaches_every_trial(monkeypatch):
    # The sweep applies whatever system.estimate_ls returns, so a scaled
    # estimator moves every empirical NMSE and no analytic one.
    cfg = ExperimentConfig(**DESK, schemes=SCHEMES)
    honest = run_sweep(cfg)
    _counting(monkeypatch, "estimate_ls", [], scale=1.0 + 1e-6)
    scaled = run_sweep(cfg)
    assert all(a.empirical_nmse != b.empirical_nmse for a, b in zip(honest, scaled))
    assert [r.analytic_nmse for r in honest] == [r.analytic_nmse for r in scaled]


def _per_trial_nmse(cfg, cell, si, trial):
    """One trial estimated on its own received block, as an oracle."""
    ch_seed = np.random.SeedSequence([cfg.seed, si, trial, 0])
    noise_seed = np.random.SeedSequence([cfg.seed, si, trial, 1])
    gamma = cascaded_channel(sample_channels(ch_seed, cfg.system(cfg.snr_db[si]), cfg.corr))
    m_eff = cfg.m
    if cell.grouping is not None:
        gamma = cell.grouping.combine_gamma(gamma, cfg.k)
        m_eff = cell.grouping.m_grouped
    s = cell.s
    y = system.simulate_reception(gamma, s, cfg.sigma2, noise_seed)
    if cfg.estimator == "ls":
        gamma_hat = system.estimate_ls(y, s)
    else:
        gamma_hat = system.estimate_lmmse(y, s, cell.r_gamma, cfg.sigma2, cfg.l)
    err = float(np.sum(np.abs(gamma_hat - gamma) ** 2))
    return system.nmse(err, cfg.l, cfg.k, m_eff)


def _outputs(rows):
    return [(r.scheme, r.snr_db, r.trial, r.analytic_nmse, r.empirical_nmse, r.iterations)
            for r in rows]


@st.composite
def sweeps(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    b = m + draw(st.integers(1, 2))
    schemes = [SchemeId.NAIVE]
    if b == m + 1:
        schemes.append(SchemeId.ON_OFF)
    rho = draw(st.sampled_from([r for r in range(1, m + 1) if m % r == 0]))
    if draw(st.booleans()):
        schemes.append(SchemeId.PROPOSED_GROUPED)
    return ExperimentConfig(
        k=k, m=m, l=draw(st.integers(1, 3)), b=b, tau=k + draw(st.integers(0, 1)),
        # Trial counts below, at and across the block size, so a partial
        # last block is covered.
        trials=draw(st.integers(1, 2 * experiments.TRIAL_BLOCK + 1)),
        snr_db=(0.0, 10.0), seed=draw(st.integers(0, 2**32 - 1)),
        estimator=draw(st.sampled_from(["ls", "lmmse"])), schemes=tuple(schemes),
        rho=rho, max_iter=3,
    )


@settings(max_examples=10, deadline=None)
@given(cfg=sweeps())
def test_sweep_matches_per_trial_oracle_and_reproduces(cfg):
    rows = run_sweep(cfg)
    r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
    cells = {(s.value, si): experiments._design_cell(s, cfg, snr, r_gamma, {})
             for s in cfg.schemes for si, snr in enumerate(cfg.snr_db)}
    for row in rows:
        si = cfg.snr_db.index(row.snr_db)
        want = _per_trial_nmse(cfg, cells[(row.scheme, si)], si, row.trial)
        assert row.empirical_nmse == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _outputs(run_sweep(cfg)) == _outputs(rows)


@pytest.mark.parametrize("trials", [1, experiments.TRIAL_BLOCK, 2 * experiments.TRIAL_BLOCK + 3])
def test_trials_run_in_blocks(monkeypatch, trials):
    # Each cell draws and receives its trials in ceil(trials / TRIAL_BLOCK)
    # stacks of at most TRIAL_BLOCK, a few trials, so memory does not grow
    # with --trials.
    assert 2 <= experiments.TRIAL_BLOCK <= 16
    stacks = []
    real_sample, real_receive = experiments.sample_channels, system.simulate_reception

    def sample(seeds, *args):
        stacks.append(("channel", len(seeds)))
        return real_sample(seeds, *args)

    def receive(gamma, s, sigma2, seeds):
        stacks.append(("noise", len(seeds)))
        return real_receive(gamma, s, sigma2, seeds)
    monkeypatch.setattr(experiments, "sample_channels", sample)
    monkeypatch.setattr(system, "simulate_reception", receive)
    cfg = ExperimentConfig(**dict(DESK, trials=trials), schemes=(SchemeId.NAIVE,))
    run_sweep(cfg)
    full, last = divmod(trials, experiments.TRIAL_BLOCK)
    sizes = [experiments.TRIAL_BLOCK] * full + ([last] if last else [])
    per_cell = [(kind, n) for n in sizes for kind in ("channel", "noise")]
    assert stacks == per_cell * len(cfg.snr_db)
