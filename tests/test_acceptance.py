"""Acceptance suite: one test per acceptance criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its measured margin.
"""

import numpy as np

from conftest import (
    lmmse_objective,
    lmmse_surrogate_value,
    ls_majorizer,
    ls_objective,
    phase_cost,
    random_feasible_pattern,
    random_hpd,
    random_training,
)
from risce.baselines import SchemeId, naive_pattern
from risce.channel import (
    CorrelationSpec,
    cascaded_channel,
    cascaded_correlation,
    kronecker_factors,
    sample_channels,
)
from risce.experiments import ExperimentConfig, run_sweep
from risce.lmmse_design import (
    TrainingTerms,
    design_lmmse,
    update_training,
)
from risce.ls_design import design_ls, dft_training
from risce.phase_model import ReflectionModel, minimize_phase_objectives
from risce.system import (
    ReflectionPattern,
    build_S,
    estimate_lmmse,
    estimate_ls,
    mse_lmmse,
    mse_ls,
    simulate_reception,
)
from risce.types import SystemConfig

TWO_PI = 2.0 * np.pi
MODEL = ReflectionModel()  # beta_min 0.2, alpha 2.0, delta 0.43 pi
CORR = CorrelationSpec()   # psi 0.2 / 0.4 / 0.6
DESK = SystemConfig(k=2, m=8, l=4)
R_DESK = cascaded_correlation(CORR, 8, 2, 4)


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_c1_kronecker_trace_identity():
    """Tr[(S S^H)^{-1}] factorizes over the pattern and training Grams."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        v = random_feasible_pattern(rng, m=6, b=7, model=MODEL)
        x = random_training(rng, k=2, tau=2, power=rng.uniform(0.5, 2.0, 2))
        s = build_S(v, x)
        lhs = float(np.real(np.trace(np.linalg.inv(s @ s.conj().T))))
        rhs = float(
            np.real(np.trace(np.linalg.inv(v.v @ v.v.conj().T)))
            * np.real(np.trace(np.linalg.inv(x.x @ x.x.conj().T)))
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-8
    _report("criterion-1 kronecker-trace-identity",
            f"max relative error {worst:.2e} over 200 instances")


def _fd_gradient(fun, at, h=1e-6):
    grad = np.zeros(2 * at.size)
    for idx in range(at.size):
        for part, off in ((1.0, 0), (1.0j, at.size)):
            d = np.zeros_like(at)
            d.flat[idx] = part * h
            grad[idx + off] = (fun(at + d) - fun(at - d)) / (2 * h)
    return grad


def test_c2_majorization_suites():
    """Both surrogates dominate, touch, and share gradients at the anchor."""
    rng = np.random.default_rng(22)

    # quadratic upper bound of the pattern objective
    v0 = random_feasible_pattern(rng, m=3, b=4, model=MODEL)
    sur = ls_majorizer(v0.v)
    tangency = abs(sur(v0.v) - ls_objective(v0.v)) / ls_objective(v0.v)
    assert tangency < 1e-8
    min_slack = np.inf
    for _ in range(100):
        v = random_feasible_pattern(rng, m=3, b=4, model=MODEL)
        slack = sur(v.v) - ls_objective(v.v)
        min_slack = min(min_slack, slack)
        assert slack >= -1e-8
    g_f = _fd_gradient(
        lambda v: float(np.real(np.trace(np.linalg.inv(v @ v.conj().T)))), v0.v
    )
    g_s = _fd_gradient(sur, v0.v)
    grad_err = np.linalg.norm(g_f - g_s) / np.linalg.norm(g_f)
    assert grad_err < 1e-4

    # quadratic upper bound of the estimation-gain objective
    cfg = SystemConfig(k=2, m=3, l=4, b=4, tau=2)
    r = cascaded_correlation(CORR, 3, 2, 4)
    x0 = random_training(rng, 2, 2, cfg.power)
    w0 = random_feasible_pattern(rng, 3, 4, MODEL)
    s0 = build_S(w0, x0)

    def sur2(s):
        return lmmse_surrogate_value(x0.x, w0.v, r, s, 1.0, 4)

    g0 = lmmse_objective(s0, r, 1.0, 4)
    tangency2 = abs(sur2(s0) - g0) / abs(g0)
    assert tangency2 < 1e-8
    min_slack2 = np.inf
    for _ in range(100):
        s = build_S(
            random_feasible_pattern(rng, 3, 4, MODEL),
            random_training(rng, 2, 2, cfg.power),
        )
        slack = sur2(s) - lmmse_objective(s, r, 1.0, 4)
        min_slack2 = min(min_slack2, slack)
        assert slack >= -1e-8 * abs(g0)
    g_g = _fd_gradient(lambda s: lmmse_objective(s, r, 1.0, 4), s0)
    g_b = _fd_gradient(sur2, s0)
    grad_err2 = np.linalg.norm(g_g - g_b) / np.linalg.norm(g_g)
    assert grad_err2 < 1e-4

    _report("criterion-2 majorization-suites",
            f"tangency {tangency:.1e}/{tangency2:.1e}, "
            f"gradient match {grad_err:.1e}/{grad_err2:.1e}, "
            f"min domination slack {min_slack:.2e}/{min_slack2:.2e}")


def test_c3_monotone_convergence():
    """20 seeded desk-scale designs per estimator descend and stop in budget."""
    n_ls = n_lm = 0
    for seed in range(20):
        init = random_feasible_pattern(np.random.default_rng(seed), 8, 9, MODEL)
        _, trace = design_ls(DESK, MODEL, init=init, eps=1e-3, accelerate=False)
        assert np.all(np.diff(trace.objectives) <= 1e-10), f"LS seed {seed}"
        assert trace.converged, f"LS stopping rule did not fire (seed {seed})"
        n_ls = max(n_ls, trace.iterations)

        init_v = random_feasible_pattern(np.random.default_rng(100 + seed), 8, 9, MODEL)
        _, _, trace = design_lmmse(
            DESK, MODEL, R_DESK, init_v=init_v, eps=1e-3, accelerate=False
        )
        assert np.all(np.diff(trace.objectives) <= 1e-10), f"LMMSE seed {seed}"
        assert trace.converged, f"LMMSE stopping rule did not fire (seed {seed})"
        n_lm = max(n_lm, trace.iterations)
    _report("criterion-3 monotone-convergence",
            f"worst-case iterations LS {n_ls}, LMMSE {n_lm} (budget 500)")


def test_c4_closed_form_optimality_oracles():
    """Training closed form vs QP oracle; phase updates vs 1e6-point grid."""
    rng = np.random.default_rng(33)
    worst_x = 0.0
    for _ in range(500):
        tau = int(rng.integers(1, 6))
        n_sub = int(rng.integers(1, 5))
        lam2 = rng.uniform(0.1, 4.0)
        p = rng.uniform(0.2, 4.0)
        b_k = rng.standard_normal(tau) + 1j * rng.standard_normal(tau)
        x0 = np.zeros((1, tau), dtype=complex)
        terms = TrainingTerms(curvature=lam2 * n_sub, b_sums=b_k.reshape(tau, 1), x0=x0)
        x_closed = update_training(terms, [p])[0]
        # independent oracle: projected gradient descent on the ball
        x = np.zeros(tau, dtype=complex)
        step = 0.4 / (2 * lam2 * n_sub)
        for _ in range(600):
            x = x - step * (2 * lam2 * n_sub * x - 2 * b_k)
            norm = np.linalg.norm(x)
            if norm > np.sqrt(p):
                x *= np.sqrt(p) / norm
        worst_x = max(worst_x, float(np.linalg.norm(x - x_closed)))
    assert worst_x < 1e-6

    dense = np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False)
    worst_v = 0.0
    for _ in range(50):
        q = rng.uniform(0.0, 10.0)
        c = 3.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        _, (value,) = minimize_phase_objectives([q], [c], MODEL)
        oracle = float(np.min(phase_cost(q, c, dense, MODEL)))
        scale = max(abs(oracle), 1e-9)
        assert value <= oracle + 1e-9 * scale
        worst_v = max(worst_v, (value - oracle) / scale)
    _report("criterion-4 closed-form-oracles",
            f"max training deviation {worst_x:.2e}, "
            f"max phase-value excess over 1e6-grid {worst_v:.2e}")


def _empirical_means(rows):
    acc = {}
    for r in rows:
        acc.setdefault((r.scheme, r.snr_db), []).append(r.empirical_nmse)
    return {k: float(np.mean(v)) for k, v in acc.items()}


def _analytic(rows):
    return {(r.scheme, r.snr_db): r.analytic_nmse for r in rows}


def test_c5_figure_orderings():
    """Scheme orderings of the NMSE-vs-SNR figures at desk scale.

    Analytic orderings are deterministic and must hold outright; empirical
    orderings (50 trials, common random numbers) must hold in >= 95% of 20
    seeded repetitions.  The ideal-projection and naive LS curves coincide up
    to grid-resolution noise, so that comparison carries a 1e-6 slack.
    """
    snrs = (-5.0, 0.0, 5.0, 10.0)
    ls_schemes = (SchemeId.PROPOSED, SchemeId.IDEAL_RIS_PROJECTION,
                  SchemeId.NAIVE, SchemeId.ON_OFF)
    tie = 1e-6

    # deterministic analytic orderings (design does not depend on the seed)
    ls_rows = run_sweep(ExperimentConfig(estimator="ls", trials=1, seed=0,
                                         snr_db=snrs, schemes=ls_schemes))
    lm_rows = run_sweep(ExperimentConfig(
        estimator="lmmse", trials=1, seed=0, snr_db=snrs,
        schemes=(SchemeId.PROPOSED, SchemeId.IDEAL_RIS_PROJECTION, SchemeId.NAIVE),
    ))
    a_ls, a_lm = _analytic(ls_rows), _analytic(lm_rows)
    min_lm_gap = np.inf
    for s in snrs:
        assert a_ls[("proposed", s)] <= a_ls[("ideal-projection", s)] * (1 + tie)
        assert a_ls[("ideal-projection", s)] <= a_ls[("naive", s)] * (1 + tie)
        assert a_ls[("naive", s)] < a_ls[("onoff", s)]
        # strict ideal-projection < naive gap for the LMMSE estimator
        assert a_lm[("ideal-projection", s)] < a_lm[("naive", s)]
        min_lm_gap = min(min_lm_gap,
                         a_lm[("naive", s)] - a_lm[("ideal-projection", s)])
        assert a_lm[("proposed", s)] <= a_lm[("ideal-projection", s)] * (1 + tie)
        assert a_lm[("proposed", s)] < a_ls[("proposed", s)]

    # seeded empirical repetitions
    n_rep, good = 20, 0
    for rep in range(n_rep):
        e_ls = _empirical_means(run_sweep(ExperimentConfig(
            estimator="ls", trials=50, seed=rep, snr_db=snrs, schemes=ls_schemes)))
        e_lm = _empirical_means(run_sweep(ExperimentConfig(
            estimator="lmmse", trials=50, seed=rep, snr_db=snrs,
            schemes=(SchemeId.PROPOSED,))))
        ok = all(
            e_ls[("proposed", s)] <= e_ls[("ideal-projection", s)] * (1 + tie)
            and e_ls[("ideal-projection", s)] <= e_ls[("naive", s)] * (1 + tie)
            and e_ls[("naive", s)] < e_ls[("onoff", s)]
            and e_lm[("proposed", s)] < e_ls[("proposed", s)]
            for s in snrs
        )
        good += ok
    assert good >= int(np.ceil(0.95 * n_rep)), f"only {good}/{n_rep} repetitions ordered"
    _report("criterion-5 figure-orderings",
            f"{good}/{n_rep} repetitions ordered, "
            f"min LMMSE projection-naive analytic gap {min_lm_gap:.2e}")


def test_c6_beta_min_sensitivity():
    """NMSE(proposed) non-increasing in beta_min; projection gap closes at 1."""
    beta_mins = (0.2, 0.5, 0.8, 1.0)
    power = DESK.power  # SNR 0 dB
    x = dft_training(2, 2, power)
    nmse_prop, gaps = [], []
    dim = 4 * 2 * 9
    ideal_v, _ = design_ls(DESK, ReflectionModel(beta_min=1.0), accelerate=True)
    for bm in beta_mins:
        model = ReflectionModel(beta_min=bm)
        v_prop, _ = design_ls(DESK, model, accelerate=True)
        j_prop = mse_ls(build_S(v_prop, x), 1.0, 4) / dim
        from risce.ls_design import project_pattern

        v_proj = ReflectionPattern(project_pattern(ideal_v.v, model))
        j_proj = mse_ls(build_S(v_proj, x), 1.0, 4) / dim
        nmse_prop.append(j_prop)
        gaps.append(j_proj - j_prop)
    for a, b in zip(nmse_prop, nmse_prop[1:]):
        assert b <= a * (1 + 1e-9), f"NMSE increased along beta_min: {nmse_prop}"
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-6 * nmse_prop[0], f"gap widened along beta_min: {gaps}"
    assert gaps[0] > gaps[-1]
    assert abs(gaps[-1]) < 1e-9  # identical feasible sets at beta_min = 1
    _report("criterion-6 beta-min-sensitivity",
            f"NMSE(proposed) {['%.4f' % v for v in nmse_prop]}, "
            f"gap {['%.2e' % g for g in gaps]}")


def test_c7_squarem_acceleration():
    """Accelerated LS reaches the plain-MM objective with <= half the updates."""
    ratios = []
    for seed in range(10):
        init = random_feasible_pattern(np.random.default_rng(1000 + seed), 8, 9, MODEL)
        _, plain = design_ls(DESK, MODEL, init=init, eps=1e-3, accelerate=False)
        _, acc = design_ls(DESK, MODEL, init=init, eps=1e-3, accelerate=True)
        target = plain.objectives[-1] * (1 + 1e-3)
        reached = [calls for obj, calls in zip(acc.objectives, acc.update_calls)
                   if obj <= target]
        assert reached, f"seed {seed}: acceleration never reached the MM objective"
        assert reached[0] <= plain.total_updates / 2, (
            f"seed {seed}: {reached[0]} vs plain {plain.total_updates}"
        )
        ratios.append(reached[0] / plain.total_updates)
    _report("criterion-7 squarem-acceleration",
            f"update-call ratio range {min(ratios):.3f}..{max(ratios):.3f}")


def test_c8_trace_bound():
    """Tr[(I+A)^{-1}] <= N a / (N + a) on 1000 random PD matrices."""
    rng = np.random.default_rng(88)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        a = random_hpd(rng, n, jitter=rng.uniform(0.01, 1.0))
        inv_trace = float(np.real(np.trace(np.linalg.inv(a))))
        lhs = float(np.real(np.trace(np.linalg.inv(np.eye(n) + a))))
        margin = lhs - n * inv_trace / (n + inv_trace)
        worst = max(worst, margin)
        assert margin <= 1e-10
    _report("criterion-8 trace-bound", f"max violation {worst:.2e} (<= 1e-10)")


def test_c9_estimator_consistency():
    """Monte Carlo MSEs match the analytic formulas within 3% at 1e4 trials."""
    v = naive_pattern(8, 9, MODEL)
    x = dft_training(2, 2, DESK.power)
    s = build_S(v, x)
    n_trials = 10_000

    analytic_ls = mse_ls(s, 1.0, 4)
    gamma = cascaded_channel(sample_channels(0, DESK, CORR))
    acc = 0.0
    for t in range(n_trials):
        y = simulate_reception(gamma, s, 1.0, np.random.SeedSequence([91, t]))
        acc += float(np.sum(np.abs(estimate_ls(y, s) - gamma) ** 2))
    ratio_ls = acc / n_trials / analytic_ls
    assert abs(ratio_ls - 1.0) < 0.03

    analytic_lm = mse_lmmse(v.v, x.x, kronecker_factors(R_DESK, 2), 1.0, 4)
    acc = 0.0
    for t in range(n_trials):
        gamma = cascaded_channel(
            sample_channels(np.random.SeedSequence([92, t]), DESK, CORR)
        )
        y = simulate_reception(gamma, s, 1.0, np.random.SeedSequence([93, t]))
        acc += float(np.sum(np.abs(estimate_lmmse(y, s, R_DESK, 1.0, 4) - gamma) ** 2))
    ratio_lm = acc / n_trials / analytic_lm
    assert abs(ratio_lm - 1.0) < 0.03
    _report("criterion-9 estimator-consistency",
            f"empirical/analytic LS {ratio_ls:.4f}, LMMSE {ratio_lm:.4f}")
