"""The Monte Carlo path of run_sweep: one estimator per cell, same numbers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from risce import experiments, system
from risce.baselines import SchemeId
from risce.channel import cascaded_channel, sample_channels
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


def test_lmmse_sweep_at_180_db_with_rank_deficient_s_h_r_s_matches_its_analytic_nmse():
    # B = 10 > M+1 = 9 and tau = 3 > K = 2, so S^H R S is singular and only
    # sigma^2 L I keeps the LMMSE filter finite.  At 180 dB the rounding of Y
    # (about eps 1e9) stays far below the unit noise, so the band allows for
    # the Monte Carlo spread of 20 trials only.
    cfg = ExperimentConfig(estimator="lmmse", b=10, tau=3, schemes=(SchemeId.NAIVE,),
                           snr_db=(180.0,), trials=20)
    rows = run_sweep(cfg)
    ratio = np.mean([r.empirical_nmse for r in rows]) / rows[0].analytic_nmse
    assert 0.5 <= ratio <= 2.0


def _per_trial_nmse(cfg, cell, si, trial):
    """One trial estimated on its own received block, as an oracle."""
    ch_seed = np.random.SeedSequence([cfg.seed, si, trial, 0])
    noise_seed = np.random.SeedSequence([cfg.seed, si, trial, 1])
    gamma = cascaded_channel(sample_channels([ch_seed], cfg.system(cfg.snr_db[si]), cfg.corr))
    m_eff = cfg.m
    if cell.grouping is not None:
        gamma = cell.grouping.combine_gamma(gamma, cfg.k)
        m_eff = cell.grouping.m_grouped
    s = system.build_S(cell.pattern, cell.training)
    [y] = system.simulate_reception(gamma, s, cfg.sigma2, [noise_seed])
    v, x = cell.pattern.v, cell.training.x
    if cfg.estimator == "ls":
        gamma_hat = system.estimate_ls(y, (v, x))
    else:
        gamma_hat = system.estimate_lmmse(y, (v, x), cell.factors, cfg.sigma2, cfg.l)
    err = float(np.sum(np.abs(gamma_hat - gamma[0]) ** 2))
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
        # Seeds of one to three 32-bit words: the sweep seeds each trial from
        # the seed's words, the oracle from the int itself.
        snr_db=(0.0, 10.0), seed=draw(st.integers(0, 2**70)),
        estimator=draw(st.sampled_from(["ls", "lmmse"])), schemes=tuple(schemes),
        rho=rho, max_iter=3,
    )


@settings(max_examples=10, deadline=None)
@given(cfg=sweeps())
@example(cfg=ExperimentConfig(k=2, m=2, l=2, b=3, tau=3, trials=9, snr_db=(0.0, 10.0),
                              seed=2**32, estimator="lmmse", max_iter=3,
                              schemes=(SchemeId.NAIVE, SchemeId.ON_OFF)))
@example(cfg=ExperimentConfig(k=1, m=3, l=3, b=5, tau=2, trials=3, snr_db=(0.0, 10.0),
                              seed=2**64 + 3, estimator="ls", max_iter=3,
                              schemes=(SchemeId.NAIVE,)))
def test_sweep_matches_per_trial_oracle_and_reproduces(cfg):
    rows = run_sweep(cfg)
    cells = {(s.value, si): experiments._design_cell(s, cfg, snr, {}, {})
             for s in cfg.schemes for si, snr in enumerate(cfg.snr_db)}
    for row in rows:
        si = cfg.snr_db.index(row.snr_db)
        want = _per_trial_nmse(cfg, cells[(row.scheme, si)], si, row.trial)
        assert row.empirical_nmse == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _outputs(run_sweep(cfg)) == _outputs(rows)


@pytest.mark.parametrize("seed, words", [(0, [0]), (2**32 - 1, [2**32 - 1]), (2**32, [0, 1]),
                                         (2**64 + 3, [3, 0, 1])])
def test_seed_words_give_the_seed_list_stream(seed, words):
    # numpy splits each int of a seed list into 32-bit words, least
    # significant first, 0 as one word; the sweep seeds its trials from that
    # uint32 array, which must give the pool of the list itself.
    for snr_index, trial, stream in ((0, 0, 0), (3, 17, 1)):
        listed = np.random.SeedSequence([seed, snr_index, trial, stream])
        packed = np.random.SeedSequence(np.array([*words, snr_index, trial, stream], np.uint32))
        assert np.array_equal(listed.generate_state(8), packed.generate_state(8))


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


def test_ls_cells_decompose_only_the_factors_of_s_s_h(monkeypatch):
    # S S^H = kron(V V^H, X X^H) is (M+1)K square.  An LS cell's MSE and
    # filter decompose and solve with its (M+1)- and K-sized factors only.
    sizes = []

    def recording(real):
        def decompose(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)
        return decompose
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                         (scipy.linalg, "cholesky")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    cfg = ExperimentConfig(**DESK, schemes=(SchemeId.NAIVE, SchemeId.ON_OFF))
    run_sweep(cfg)
    assert (cfg.m + 1) * cfg.k not in sizes and {cfg.m + 1, cfg.k} <= set(sizes)


@pytest.mark.parametrize("estimator", ["ls", "lmmse"])
def test_sweep_builds_the_factors_once_per_lmmse_grouping(monkeypatch, estimator):
    # R and the grouped R are each built once, across both SNRs, and
    # kron(A, P) is read back once from each; every LMMSE cell of that
    # grouping reads the same factors.  Neither J_LS nor the LS filter reads
    # R, so an LS sweep builds none.
    built = []

    def recording(name, size):
        real = getattr(experiments, name)

        def build(*args):
            built.append((name, size(*args)))
            return real(*args)
        monkeypatch.setattr(experiments, name, build)
    recording("cascaded_correlation", lambda corr, m, k, l: (m + 1) * k)
    recording("grouped_cascaded_correlation", lambda corr, ind, k, l: (ind.shape[1] + 1) * k)
    recording("kronecker_factors", lambda r_gamma, k: r_gamma.shape[0])
    cfg = ExperimentConfig(**DESK, estimator=estimator, rho=3,
                           schemes=(SchemeId.NAIVE, SchemeId.PROPOSED_GROUPED, SchemeId.PROPOSED))
    rows = run_sweep(cfg)
    grouped, full = (cfg.m // cfg.rho + 1) * cfg.k, (cfg.m + 1) * cfg.k
    want = [("cascaded_correlation", full), ("grouped_cascaded_correlation", grouped),
            ("kronecker_factors", full), ("kronecker_factors", grouped)]
    assert sorted(built) == (sorted(want) if estimator == "lmmse" else [])
    assert len(rows) == len(cfg.schemes) * len(cfg.snr_db) * cfg.trials
