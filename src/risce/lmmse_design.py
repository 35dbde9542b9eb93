"""LMMSE-criterion design: MM-based alternating training/pattern updates.

The design objective is g(S) = -Tr[R S (S^H R S + sigma^2 L I)^{-1} S^H R]
with S = (V kron I_K)(I_B kron X).  At an anchor S0 the convexity bound
gives the quadratic-plus-linear majorizer

    g(S; S0) = Tr[Xi0^H S^H R S Xi0] - 2 Re{Tr[Xi0 R S]} + sigma^2 L Tr[Xi0 Xi0^H],
    Xi0      = (S0^H R S0 + sigma^2 L I)^{-1} S0^H R,

which is majorized once more per block to decouple the variables:

  * training: per UE, minimize lambda2 B ||x_k||^2 - 2 Re{b_k^H x_k} under
    ||x_k||^2 <= P_k, solved in closed form (boundary or interior branch);
  * pattern: per entry, minimize lambda3 K |v|^2 - 2 Re{c_{m,n} v} over the
    reflection law, solved by the per-entry phase search
    :func:`~risce.phase_model.minimize_pattern_entries` with q = lambda3 K
    and c = -c_{m,n}.

lambda2/lambda3 are spectral bounds: products of the largest eigenvalues
(LAPACK eigvalsh) of the Kronecker factors, inflated by a small safety
margin so the majorization survives rounding.  Each step builds only what it
reads from the anchor (Xi0, Xi0 Xi0^H, X0, V0) of :func:`build_surrogate`:
the training step lambda2 and B0 (:func:`training_terms`), the pattern step
lambda3 and C0 at the X it sees (:func:`refresh_pattern_terms`), which in a
plain round is the freshly updated X.  lambda_max(R) is computed once per
design.

The rounds run on :func:`risce.accel.mm_loop` over the pair (X, V).  A plain
round is one MM update (one anchor, three eigen-solves); a SQUAREM round
takes one SQUAREM step per block, training then pattern, so four MM updates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import numerics
from .accel import mm_loop, plain_step, squarem_step
from .baselines import naive_pattern
from .ls_design import (
    DEFAULT_EPS,
    DEFAULT_MAX_ITER_ACCEL,
    DEFAULT_MAX_ITER_PLAIN,
    dft_training,
    project_pattern,
)
from .phase_model import (
    ReflectionModel,
    minimize_pattern_entries,
    minimize_phase_objectives,  # noqa: F401  perfbench/selftest.py checks the tracer rebinds it here
)
from .system import ReflectionPattern, TrainingMatrix, lmmse_filter, mse_lmmse
from .types import DesignTrace, SystemConfig

# Multiplicative slack on the eigenvalue products; the spectra are exact to
# rounding, so the slack only has to cover rounding.  It stays at 1.0001
# because a smaller margin would change the MM iterates of the algorithm.
SAFETY_MARGIN = 1.0001


class LmmseSurrogateState(NamedTuple):
    """Anchor of the first majorization, shared by the two block steps."""

    xi0: np.ndarray        # (tau*B, (M+1)*K)
    xi_gram: np.ndarray    # Xi0 Xi0^H, (tau*B, tau*B)
    xt0: np.ndarray        # I_B kron X0, (BK, tau*B)
    vt0: np.ndarray        # V0 kron I_K, ((M+1)K, BK)
    x0: TrainingMatrix
    r_gamma: np.ndarray
    sigma2: float
    l: int


class TrainingTerms(NamedTuple):
    """Second majorization of the training block at the anchor."""

    lambda2: float
    b0: np.ndarray         # (tau*B, B*K) linear coefficients of the X step
    x0: TrainingMatrix     # a vanishing b_k keeps its row


class PatternTerms(NamedTuple):
    """Second majorization of the pattern block at one training X."""

    lambda3: float
    c0: np.ndarray         # (B*K, (M+1)*K) linear coefficients of the V step
    k: int


def _spectral_bound(a: np.ndarray) -> float:
    return numerics.largest_eigenvalue(a).value


def build_surrogate(
    x0: TrainingMatrix,
    v0: ReflectionPattern,
    r_gamma: np.ndarray,
    sigma2: float,
    l: int,
) -> LmmseSurrogateState:
    """Compute the anchor Xi0 and Xi0 Xi0^H at (X0, V0)."""
    vt0 = np.kron(v0.v, np.eye(x0.k))       # ((M+1)K, BK)
    xt0 = np.kron(np.eye(v0.b), x0.x)       # (BK, tau*B)
    xi0, _ = lmmse_filter(vt0 @ xt0, r_gamma, sigma2, l)
    return LmmseSurrogateState(
        xi0=xi0, xi_gram=xi0 @ xi0.conj().T, xt0=xt0, vt0=vt0, x0=x0,
        r_gamma=r_gamma, sigma2=sigma2, l=l,
    )


def training_terms(state: LmmseSurrogateState) -> TrainingTerms:
    """lambda2 and B0 of the training step, anchored at (X0, V0)."""
    xt0, vt0, r_gamma = state.xt0, state.vt0, state.r_gamma
    m_v = vt0.conj().T @ r_gamma @ vt0      # (BK, BK)
    lambda2 = SAFETY_MARGIN * _spectral_bound(state.xi_gram) * _spectral_bound(m_v)
    b0 = lambda2 * xt0.conj().T - state.xi_gram @ xt0.conj().T @ m_v + state.xi0 @ r_gamma @ vt0
    return TrainingTerms(lambda2=lambda2, b0=b0, x0=state.x0)


def refresh_pattern_terms(
    state: LmmseSurrogateState, x: TrainingMatrix, r_max: float
) -> PatternTerms:
    """lambda3 and C0 of the pattern step at training x, keeping Xi0 and V0.

    r_max is lambda_max(R).  Within a plain round x is the updated training:
    the pattern step sees the new X while staying anchored at the round's
    Xi0, which preserves monotone descent.
    """
    xt = np.kron(np.eye(state.xt0.shape[0] // x.k), x.x)    # I_B kron X
    vt0, r_gamma = state.vt0, state.r_gamma
    w = xt @ state.xi_gram @ xt.conj().T    # (BK, BK)
    lambda3 = SAFETY_MARGIN * _spectral_bound(w) * r_max
    c0 = lambda3 * vt0.conj().T - w @ vt0.conj().T @ r_gamma + xt @ state.xi0 @ r_gamma
    return PatternTerms(lambda3=lambda3, c0=c0, k=x.k)


def surrogate_value(state: LmmseSurrogateState, s: np.ndarray) -> float:
    """g(S; S0) of the first majorization, for domination/tangency checks."""
    quad = float(np.real(np.trace(
        state.xi0.conj().T @ s.conj().T @ state.r_gamma @ s @ state.xi0
    )))
    lin = -2.0 * float(np.real(np.trace(state.xi0 @ state.r_gamma @ s)))
    const = state.sigma2 * state.l * float(np.real(np.trace(state.xi_gram)))
    return quad + lin + const


def update_training(terms: TrainingTerms, power) -> TrainingMatrix:
    """Closed-form per-UE training update of the decoupled quadratic problem.

    b_k sums the conjugated diagonal (subframe) blocks of B0; the solution is
    sqrt(P_k) b_k / ||b_k|| on the power boundary when ||b_k|| exceeds
    sqrt(P_k) lambda2 B, and b_k / (lambda2 B) inside it.  A vanishing b_k
    keeps the previous training row.
    """
    power = np.asarray(power, dtype=float)
    tau, k = terms.x0.tau, terms.x0.k
    b = terms.b0.shape[0] // tau
    blocks = np.conj(terms.b0).reshape(b, tau, b, k)
    b_sum = np.einsum("btbk->tk", blocks)    # (tau, K); column k is b_k
    x_new = np.empty((k, tau), dtype=complex)
    for uk in range(k):
        b_k = b_sum[:, uk]
        norm_b = np.linalg.norm(b_k)
        if norm_b == 0.0:
            x_new[uk] = terms.x0.x[uk]
        elif norm_b > np.sqrt(power[uk]) * terms.lambda2 * b:
            x_new[uk] = np.sqrt(power[uk]) / norm_b * b_k
        else:
            x_new[uk] = b_k / (terms.lambda2 * b)
    return TrainingMatrix(x=x_new, power=power)


def update_pattern(
    terms: PatternTerms,
    model: ReflectionModel,
) -> ReflectionPattern:
    """Entrywise pattern update of the decoupled quadratic problem."""
    k = terms.k
    blocks = terms.c0.reshape(terms.c0.shape[0] // k, k, terms.c0.shape[1] // k, k)
    c_mat = np.einsum("nkmk->mn", blocks)    # (M+1, B)
    v = minimize_pattern_entries(terms.lambda3 * k, -c_mat[:-1], model)
    return ReflectionPattern(v=v)


def project_training_rows(x: np.ndarray, power) -> np.ndarray:
    """Scale every row to its power boundary sqrt(P_k) (zero rows stay zero)."""
    power = np.asarray(power, dtype=float)
    norms = np.linalg.norm(x, axis=1)
    scale = np.where(norms > 0.0, np.sqrt(power) / np.where(norms > 0, norms, 1.0), 0.0)
    return x * scale[:, None]


def design_lmmse(
    config: SystemConfig,
    model: ReflectionModel,
    r_gamma: np.ndarray,
    init_v: ReflectionPattern | None = None,
    eps: float = DEFAULT_EPS,
    max_iter: int | None = None,
    accelerate: bool = False,
) -> tuple[TrainingMatrix, ReflectionPattern, DesignTrace]:
    """Alternate training and pattern updates until the MSE change is < eps.

    Starts from the DFT training and, unless init_v is given, the naive
    projected-DFT pattern.  The trace records J_LMMSE per iteration
    (non-increasing) and the cumulative number of MM updates (surrogate
    rebuilds); with accelerate=True each block update is wrapped in a
    monotone SQUAREM step with its own projection.
    """
    if init_v is None:
        init_v = naive_pattern(config.m, config.b, model)
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER_ACCEL if accelerate else DEFAULT_MAX_ITER_PLAIN

    sigma2, l = config.sigma2, config.l
    power = config.power
    r_max = _spectral_bound(r_gamma)

    def mse_of(v: np.ndarray, x: np.ndarray) -> float:
        return mse_lmmse(np.kron(v, x), r_gamma, sigma2, l)

    def objective(pair) -> float:
        x, v = pair
        return mse_of(v.v, x.x)

    def anchor(x: TrainingMatrix, v: ReflectionPattern) -> LmmseSurrogateState:
        return build_surrogate(x, v, r_gamma, sigma2, l)

    def mm_round(pair):
        x, v = pair
        state = anchor(x, v)
        x = update_training(training_terms(state), power)
        return x, update_pattern(refresh_pattern_terms(state, x, r_max), model)

    def squarem_round(pair, obj):
        x, v = pair
        x_arr, obj, n_x = squarem_step(
            x.x,
            lambda xa: update_training(
                training_terms(anchor(TrainingMatrix(x=xa, power=power), v)), power).x,
            lambda xa: project_training_rows(xa, power),
            lambda xa: mse_of(v.v, xa),
            obj,
        )
        x = TrainingMatrix(x=x_arr, power=power)
        v_arr, obj, n_v = squarem_step(
            v.v,
            lambda va: update_pattern(refresh_pattern_terms(
                anchor(x, ReflectionPattern(v=va)), x, r_max), model).v,
            lambda va: project_pattern(va, model),
            lambda va: mse_of(va, x.x),
            obj,
        )
        return (x, ReflectionPattern(v=v_arr)), obj, n_x + n_v

    step = squarem_round if accelerate else plain_step(mm_round, objective)
    x0 = dft_training(config.k, config.tau, power)
    (x, v), trace = mm_loop((x0, init_v), step, objective, eps, max_iter)
    return x, v, trace
