"""Seeded Monte Carlo experiment harness over schemes, estimators and SNRs.

Sweeps and convergence traces design through :func:`_design`, with the
config's eps and max_iter.  A sweep runs each distinct design once and
caches it whole, (X, V, DesignTrace), for every cell that reads it.
Channel and noise draws use per-(SNR, trial) seed streams shared by all
schemes (common random numbers).  Both estimators are linear in the received
block, so each (scheme, SNR) cell builds its estimator W once, through the
public system.estimate_ls / estimate_lmmse.  The cell's trials then run in
blocks of TRIAL_BLOCK: each trial still draws from its own channel and noise
streams, and the block colors, cascades, receives (one (block L) x n product
Gamma S) and applies W (one product Y W) together, through the same
sample_channels, cascaded_channel and simulate_reception a single trial uses.
Output rows are emitted in deterministic (scheme, SNR, trial) order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import phase_model, system
from .baselines import (
    ElementGrouping,
    SchemeId,
    group_reduce,
    naive_pattern,
    onoff_pattern,
)
from .channel import (
    CorrelationSpec,
    cascaded_channel,
    cascaded_correlation,
    grouped_cascaded_correlation,
    kronecker_factors,
    sample_channels,
)
from .errors import ConfigError, RisceError
from .lmmse_design import design_lmmse
from .ls_design import DEFAULT_EPS, design_ls, dft_training, project_pattern
from .phase_model import ReflectionModel, ideal_model
from .system import ReflectionPattern, TrainingMatrix, build_S
from .types import SystemConfig

# Defaults are the desk-scale profile; Table-I scale is available via the
# CLI's --profile paper.
PAPER_PROFILE = dict(k=4, m=20, l=16, trials=50)

ESTIMATORS = ("ls", "lmmse")

# Monte Carlo trials per batched block.  Blocks of 4 to 10 trials ran fastest
# at the paper profile; memory grows with the block, not with the trials.
TRIAL_BLOCK = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run (desk-scale defaults)."""

    # Power is SNR * sigma2, so no other noise variance could move an output.
    sigma2: ClassVar[float] = 1.0
    k: int = 2
    m: int = 8
    l: int = 4
    b: int | None = None
    tau: int | None = None
    snr_db: tuple[float, ...] = (-5.0, 0.0, 5.0, 10.0)
    trials: int = 50
    seed: int = 0
    beta_min: float = ReflectionModel.beta_min
    alpha: float = ReflectionModel.alpha
    delta: float = ReflectionModel.delta
    psi_ue: float = CorrelationSpec.psi_ue
    psi_ris: float = CorrelationSpec.psi_ris
    psi_bs: float = CorrelationSpec.psi_bs
    schemes: tuple[SchemeId, ...] = (
        SchemeId.PROPOSED,
        SchemeId.IDEAL_RIS,
        SchemeId.IDEAL_RIS_PROJECTION,
        SchemeId.NAIVE,
        SchemeId.ON_OFF,
    )
    estimator: str = "ls"
    eps: float = DEFAULT_EPS
    max_iter: int | None = None
    accelerate: bool = True
    rho: int = 1
    simulate: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.b is None:
            object.__setattr__(self, "b", self.m + 1)
        if self.tau is None:
            object.__setattr__(self, "tau", self.k)
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.snr_db:
            raise ConfigError("snr_db must not be empty")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if SchemeId.ON_OFF in self.schemes and self.b != self.m + 1:
            raise ConfigError("the on-off scheme requires b == m + 1")
        if not all(np.isfinite((self.eps, *self.snr_db))):
            raise ConfigError("eps and snr_db must be finite")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.max_iter is not None and self.max_iter < 0:
            raise ConfigError(f"max_iter must be >= 0, got {self.max_iter}")
        # The objects that own the other values check them; build each once
        # and report their errors as ConfigError.
        try:
            self.model, self.corr, self.system(self.snr_db[0])
            if SchemeId.PROPOSED_GROUPED in self.schemes:
                group_reduce(self.m, self.rho)
        except (ValueError, RisceError) as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def model(self) -> ReflectionModel:
        return ReflectionModel(beta_min=self.beta_min, alpha=self.alpha, delta=self.delta)

    @property
    def corr(self) -> CorrelationSpec:
        return CorrelationSpec(psi_ue=self.psi_ue, psi_ris=self.psi_ris, psi_bs=self.psi_bs)

    def power(self, snr_db: float) -> np.ndarray:
        """Per-UE budgets at a given SNR (identical across UEs)."""
        return np.full(self.k, 10.0 ** (snr_db / 10.0) * self.sigma2)

    def system(self, snr_db: float) -> SystemConfig:
        return SystemConfig(
            k=self.k, m=self.m, l=self.l, b=self.b, tau=self.tau,
            sigma2=self.sigma2, power=self.power(snr_db),
        )


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    estimator: str
    snr_db: float
    trial: int
    analytic_nmse: float
    empirical_nmse: float | None
    iterations: int
    wall_ms: float


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class CellDesign:
    """Designed (X, V) plus bookkeeping for one (scheme, SNR) cell."""

    training: TrainingMatrix
    pattern: ReflectionPattern
    iterations: int
    wall_ms: float
    r_gamma: np.ndarray
    grouping: ElementGrouping | None = None

    @property
    def s(self) -> np.ndarray:
        return build_S(self.pattern, self.training)


def _design(cfg, sys_cfg, model, r_gamma, accelerate):
    """(X, V, DesignTrace) of the config's MM design at sys_cfg and law model.

    An LS design returns its V with the DFT training of sys_cfg.
    """
    opts = dict(eps=cfg.eps, max_iter=cfg.max_iter, accelerate=accelerate)
    if cfg.estimator == "ls":
        v, trace = design_ls(sys_cfg, model, **opts)
        return dft_training(sys_cfg.k, sys_cfg.tau, sys_cfg.power), v, trace
    return design_lmmse(sys_cfg, model, r_gamma, **opts)


def _design_cell(
    scheme: SchemeId,
    cfg: ExperimentConfig,
    snr_db: float,
    r_gamma: np.ndarray,
    designs: dict,
) -> CellDesign:
    """Design (X, V) for one scheme at one SNR.

    designs memoizes whole (X, V, trace) designs across cells, keyed by the
    reflection law, grouped or not, and for LMMSE the SNR.  So
    ideal-projection reuses the ideal design, and an LS pattern, whose
    objective Tr[(V V^H)^{-1}] does not depend on the power budgets, is
    designed once per sweep and paired with the DFT training of each SNR.
    """
    sys_cfg = cfg.system(snr_db)
    model = cfg.model
    start = time.perf_counter()
    grouping = None
    x = dft_training(cfg.k, cfg.tau, sys_cfg.power)
    iters = 0

    if scheme is SchemeId.NAIVE:
        v = naive_pattern(cfg.m, cfg.b, model)
    elif scheme is SchemeId.ON_OFF:
        v = onoff_pattern(cfg.m, cfg.b)
    else:
        grouped = scheme is SchemeId.PROPOSED_GROUPED
        if grouped:
            grouping = group_reduce(cfg.m, cfg.rho)
            sys_cfg = replace(sys_cfg, m=grouping.m_grouped, b=grouping.m_grouped + 1)
            r_gamma = grouped_cascaded_correlation(cfg.corr, grouping.indicator(), cfg.k, cfg.l)
        ideal = scheme in (SchemeId.IDEAL_RIS, SchemeId.IDEAL_RIS_PROJECTION)
        design_model = ideal_model() if ideal else model
        key = (design_model, grouped, snr_db)[:2 if cfg.estimator == "ls" else 3]
        if key not in designs:
            designs[key] = _design(cfg, sys_cfg, design_model, r_gamma, cfg.accelerate)
        x_designed, v, trace = designs[key]
        if cfg.estimator == "lmmse":
            x = x_designed
        iters = trace.iterations
        if scheme is SchemeId.IDEAL_RIS_PROJECTION:
            v = ReflectionPattern(v=project_pattern(v.v, model))

    return CellDesign(x, v, iters, (time.perf_counter() - start) * 1e3, r_gamma, grouping)


def _analytic_nmse(cell: CellDesign, cfg: ExperimentConfig) -> float:
    if cfg.estimator == "ls":
        j = system.mse_ls(cell.s, cfg.sigma2, cfg.l)
    else:
        j = system.mse_lmmse(cell.pattern.v, cell.training.x,
                             kronecker_factors(cell.r_gamma, cfg.k), cfg.sigma2, cfg.l)
    return system.nmse(j, cfg.l, cfg.k, cell.pattern.m)


def _empirical_nmses(cell: CellDesign, cfg: ExperimentConfig, snr_index: int) -> list[float]:
    """Empirical NMSE of every trial of one (scheme, SNR) cell.

    Trial t draws its channel and noise from SeedSequence([seed, snr_index,
    t, 0 | 1]), the same streams for every scheme.  Trials run in blocks of
    TRIAL_BLOCK, so a block's arithmetic is one batched pass.
    """
    s = cell.s
    # Both estimators are linear in Y, so W is the estimate of the identity
    # block.  They are looked up on system at call time, so a replaced
    # estimator is the one every trial applies.
    eye = np.eye(s.shape[1])
    if cfg.estimator == "ls":
        w = system.estimate_ls(eye, s)
    else:
        w = system.estimate_lmmse(eye, s, cell.r_gamma, cfg.sigma2, cfg.l)
    sys_cfg = cfg.system(cfg.snr_db[snr_index])
    corr = cfg.corr
    out = []
    for start in range(0, cfg.trials, TRIAL_BLOCK):
        trials = range(start, min(start + TRIAL_BLOCK, cfg.trials))
        ch_seeds, noise_seeds = (
            [np.random.SeedSequence([cfg.seed, snr_index, t, stream]) for t in trials]
            for stream in (0, 1))
        gamma = cascaded_channel(sample_channels(ch_seeds, sys_cfg, corr))
        if cell.grouping is not None:
            gamma = cell.grouping.combine_gamma(gamma, cfg.k)
        y = system.simulate_reception(gamma, s, cfg.sigma2, noise_seeds)
        residual = y.reshape(-1, s.shape[1]) @ w
        residual -= gamma.reshape(residual.shape)
        errs = np.sum(np.abs(residual.reshape(len(trials), -1)) ** 2, axis=1)
        out.extend(system.nmse(float(err), cfg.l, cfg.k, cell.pattern.m) for err in errs)
    return out


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Design, evaluate and (optionally) simulate every (scheme, SNR) cell.

    Returns rows sorted by (scheme order, SNR order, trial).  The analytic
    NMSE of every scheme is checked to be monotone non-increasing in SNR.
    """
    r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
    rows: list[ResultRow] = []
    designs: dict = {}
    for scheme in cfg.schemes:
        analytic_by_snr: list[tuple[float, float]] = []
        for si, snr_db in enumerate(cfg.snr_db):
            cell = _design_cell(scheme, cfg, snr_db, r_gamma, designs)
            analytic = _analytic_nmse(cell, cfg)
            analytic_by_snr.append((snr_db, analytic))
            empirical = _empirical_nmses(cell, cfg, si) if cfg.simulate else [None]
            for trial, emp in enumerate(empirical):
                rows.append(ResultRow(scheme.value, cfg.estimator, snr_db, trial,
                                      analytic, emp, cell.iterations, cell.wall_ms))
        _check_snr_monotonicity(scheme, analytic_by_snr)
    return rows


def _check_snr_monotonicity(scheme: SchemeId, pairs: list[tuple[float, float]]) -> None:
    ordered = sorted(pairs)
    for (snr_a, nmse_a), (snr_b, nmse_b) in zip(ordered, ordered[1:]):
        if nmse_b > nmse_a * (1.0 + 1e-9):
            raise RisceError(
                f"analytic NMSE of {scheme.value} increased from SNR "
                f"{snr_a} dB ({nmse_a:.6g}) to {snr_b} dB ({nmse_b:.6g})"
            )


@dataclass(frozen=True)
class ConvergenceRow:
    variant: str
    iteration: int
    objective: float
    updates: int
    wall_ms: float


CONVERGENCE_COLUMNS = tuple(f.name for f in fields(ConvergenceRow))


def run_convergence(cfg: ExperimentConfig) -> list[ConvergenceRow]:
    """Plain-MM and accelerated traces of the proposed design at the first SNR."""
    sys_cfg = cfg.system(cfg.snr_db[0])
    r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
    rows: list[ConvergenceRow] = []
    for variant, accelerate in (("mm", False), ("accelerated", True)):
        _, _, trace = _design(cfg, sys_cfg, cfg.model, r_gamma, accelerate)
        steps = zip(trace.objectives, trace.update_calls, trace.elapsed_s)
        for i, (obj, calls, elapsed) in enumerate(steps):
            rows.append(ConvergenceRow(variant, i, obj, calls, elapsed * 1e3))
    return rows


@dataclass(frozen=True)
class DesignDumpRow:
    matrix: str
    row: int
    col: int
    re: float
    im: float


DESIGN_COLUMNS = tuple(f.name for f in fields(DesignDumpRow))


def run_design_dump(cfg: ExperimentConfig) -> list[DesignDumpRow]:
    """Designed (X, V) of the first scheme at the first SNR, in long format."""
    r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)
    cell = _design_cell(cfg.schemes[0], cfg, cfg.snr_db[0], r_gamma, {})
    rows: list[DesignDumpRow] = []
    for name, mat in (("V", cell.pattern.v), ("X", cell.training.x)):
        for (i, j), val in np.ndenumerate(mat):
            rows.append(DesignDumpRow(name, i, j, float(val.real), float(val.imag)))
    return rows


def run_validation(cfg: ExperimentConfig) -> list[tuple[str, bool, str]]:
    """Spot-check the core identities and invariants at the config's scale.

    Returns (name, passed, detail) triples; used by the `validate` subcommand.
    """
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(cfg.seed)
    model = cfg.model
    sys_cfg = cfg.system(cfg.snr_db[0])
    r_gamma = cascaded_correlation(cfg.corr, cfg.m, cfg.k, cfg.l)

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append((name, bool(passed), detail))

    # Gram factorization of the effective training.
    worst = 0.0
    for _ in range(20):
        v = _random_feasible_pattern(rng, cfg.m, cfg.b, model)
        x = _random_training(rng, cfg.k, cfg.tau, sys_cfg.power)
        s = build_S(v, x)
        lhs = np.trace(np.linalg.inv(s @ s.conj().T)).real
        rhs = (
            np.trace(np.linalg.inv(v.v @ v.v.conj().T)).real
            * np.trace(np.linalg.inv(x.x @ x.x.conj().T)).real
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    add("kronecker-trace-identity", worst < 1e-8, f"max rel err {worst:.2e}")

    # LMMSE MSE: factored form vs direct form.
    v = naive_pattern(cfg.m, cfg.b, model)
    x = dft_training(cfg.k, cfg.tau, sys_cfg.power)
    s = build_S(v, x)
    lemma = system.mse_lmmse(v.v, x.x, kronecker_factors(r_gamma, cfg.k), cfg.sigma2, cfg.l)
    try:
        direct = np.trace(np.linalg.inv(
            np.linalg.inv(r_gamma) + (s @ s.conj().T) / (cfg.sigma2 * cfg.l)
        )).real
    except np.linalg.LinAlgError as exc:   # R_Gamma or the sum is singular
        add("lmmse-mse-forms-agree", False, f"direct form: {exc}")
    else:
        rel = abs(direct - lemma) / abs(direct)
        add("lmmse-mse-forms-agree", rel < 1e-8, f"rel err {rel:.2e}")

    add(
        "lmmse-not-worse-than-ls",
        lemma <= system.mse_ls(s, cfg.sigma2, cfg.l) + 1e-9,
        "",
    )

    # Reflection-law projection is idempotent.
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    once = phase_model.project_to_feasible(z, model)
    twice = phase_model.project_to_feasible(once, model)
    add("projection-idempotent", np.allclose(once, twice, atol=1e-12), "")

    # Amplitude law stays inside [beta_min, 1].
    thetas = rng.uniform(0.0, 2.0 * np.pi, 512)
    amps = phase_model.amplitude_of_phase(thetas, model)
    add(
        "amplitude-bounds",
        bool(np.all(amps >= model.beta_min - 1e-12) and np.all(amps <= 1.0 + 1e-12)),
        "",
    )

    # Cascaded correlation structure.
    add(
        "correlation-trace",
        abs(np.trace(r_gamma).real - cfg.l * cfg.k * (cfg.m + 1)) < 1e-9,
        "",
    )

    # Short design runs descend monotonically.
    _, trace = design_ls(sys_cfg, model, eps=cfg.eps, max_iter=20,
                         accelerate=cfg.accelerate)
    diffs = np.diff(trace.objectives)
    add("ls-design-monotone", bool(np.all(diffs <= 1e-10)), "")
    _, _, trace = design_lmmse(sys_cfg, model, r_gamma, eps=cfg.eps, max_iter=10,
                               accelerate=cfg.accelerate)
    diffs = np.diff(trace.objectives)
    add("lmmse-design-monotone", bool(np.all(diffs <= 1e-10)), "")

    # Trace bound for the estimator-gap argument.
    ok = True
    for _ in range(50):
        n = 6
        a_half = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a_half @ a_half.conj().T + 0.1 * np.eye(n)
        inv_trace = np.trace(np.linalg.inv(a)).real
        bound = n * inv_trace / (n + inv_trace)
        ok &= np.trace(np.linalg.inv(np.eye(n) + a)).real <= bound + 1e-10
    add("trace-bound", bool(ok), "")

    return checks


def _random_feasible_pattern(rng, m, b, model) -> ReflectionPattern:
    thetas = rng.uniform(0.0, 2.0 * np.pi, (m, b))
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = phase_model.reflection_coefficient(thetas, model)
    return ReflectionPattern(v=v)


def _random_training(rng, k, tau, power) -> TrainingMatrix:
    x = rng.standard_normal((k, tau)) + 1j * rng.standard_normal((k, tau))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    x = x / norms * np.sqrt(np.asarray(power))[:, None]
    return TrainingMatrix(x=x, power=np.asarray(power, dtype=float))
