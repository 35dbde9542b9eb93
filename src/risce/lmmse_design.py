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

R = kron(A, P) (:func:`~risce.channel.kronecker_factors`) and S0 = V0 kron X0, so
Xi0 = (U1 kron U2) diag(1 / (d1 kron d2 + sigma^2 L)) (U1^H V0^H A kron U2^H X0^H P)
with (d1, U1) = eigh(V0^H A V0) and (d2, U2) = eigh(X0^H P X0): no (M+1)K-sized
solve.  Each step builds only what it reads, by contracting Xi0 and Xi0 Xi0^H
with the factors: the per-UE sums b_k of B0's diagonal blocks
(:func:`training_terms`), and the K x K block traces of C0 at the X the pattern
step sees (:func:`refresh_pattern_terms`; in a plain round, the updated X).
lambda2/lambda3 are spectral bounds with a small safety margin against
rounding.  lambda_max(Vt0^H R Vt0) = d1_max lambda_max(P) and lambda_max(R) =
lambda_max(A) lambda_max(P) come from the factors.  lambda_max(Xi0 Xi0^H) and
lambda_max(W), W = (I_B kron X) Xi0 Xi0^H (I_B kron X)^H, stay dense eigvalsh
calls: Xi0's middle factor (S0^H R S0 + sigma^2 L I)^{-1} is not a Kronecker
product, so neither matrix is.

The rounds run on :func:`risce.accel.mm_loop` over the pair (X, V).  A plain
round is one MM update (one anchor, two dense eigen-solves); a SQUAREM round
takes one SQUAREM step per block, training then pattern, so four MM updates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import numerics
from .accel import mm_loop, plain_step, squarem_step
from .baselines import naive_pattern
from .channel import KroneckerFactors, kronecker_factors
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
from .system import ReflectionPattern, TrainingMatrix, mse_lmmse
from .types import DesignTrace, SystemConfig

# Multiplicative slack on the eigenvalue products; the spectra are exact to
# rounding, so the slack only has to cover rounding.  It stays at 1.0001
# because a smaller margin would change the MM iterates of the algorithm.
SAFETY_MARGIN = 1.0001


class LmmseSurrogateState(NamedTuple):
    """Anchor of the first majorization, shared by the two block steps."""

    xi0: np.ndarray        # (tau*B, (M+1)*K)
    xi_gram: np.ndarray    # Xi0 Xi0^H, (tau*B, tau*B)
    av0: np.ndarray        # A V0, (M+1, B)
    vav0_max: float        # lambda_max(V0^H A V0)
    x0: TrainingMatrix
    v0: np.ndarray         # (M+1, B)
    factors: KroneckerFactors
    sigma2: float
    l: int


class TrainingTerms(NamedTuple):
    """Second majorization of the training block at the anchor."""

    lambda2: float
    b_sums: np.ndarray     # (tau, K); column k is b_k
    b: int                 # subframes B
    x0: TrainingMatrix     # a vanishing b_k keeps its row


class PatternTerms(NamedTuple):
    """Second majorization of the pattern block at one training X."""

    lambda3: float
    c: np.ndarray          # (M+1, B); c[m, n] is the trace of C0's block (n, m)
    k: int


def _spectral_bound(a: np.ndarray) -> float:
    return numerics.largest_eigenvalue(a).value


def build_surrogate(x0: TrainingMatrix, v0: ReflectionPattern, factors: KroneckerFactors,
                    sigma2: float, l: int) -> LmmseSurrogateState:
    """Compute the anchor Xi0 and Xi0 Xi0^H at (X0, V0) from the factors."""
    av0, xp = factors.a @ v0.v, x0.x.conj().T @ factors.p
    d1, u1 = np.linalg.eigh(numerics.require_hermitian(v0.v.conj().T @ av0))
    d2, u2 = np.linalg.eigh(numerics.require_hermitian(xp @ x0.x))
    right = np.kron(u1.conj().T @ av0.conj().T, u2.conj().T @ xp)
    xi0 = (np.kron(u1, u2) / (np.kron(d1, d2) + sigma2 * l)) @ right
    return LmmseSurrogateState(xi0, xi0 @ xi0.conj().T, av0, float(d1[-1]), x0, v0.v,
                               factors, sigma2, l)


def training_terms(state: LmmseSurrogateState, p_max: float) -> TrainingTerms:
    """lambda2 and the b_k of the training step at (X0, V0); p_max is lambda_max(P).

    b_k is column k of conj(B lambda2 X0^H - T2 X0^H P + T3 P), with T2 =
    sum_{b,b'} [V0^H A V0]_{b'b} (Xi0 Xi0^H)_{bb'} and T3 = sum_{b,m} [A V0]_{mb} (Xi0)_{bm}.
    """
    b, tau, k = state.v0.shape[1], state.x0.tau, state.x0.k
    lambda2 = SAFETY_MARGIN * _spectral_bound(state.xi_gram) * (state.vav0_max * p_max)
    t2 = np.einsum("asbt,ba->st", state.xi_gram.reshape(b, tau, b, tau),
                   state.v0.conj().T @ state.av0)
    t3 = np.einsum("atmk,ma->tk", state.xi0.reshape(b, tau, -1, k), state.av0)
    x0h, p = state.x0.x.conj().T, state.factors.p
    b_sums = np.conj(b * lambda2 * x0h - t2 @ x0h @ p + t3 @ p)
    return TrainingTerms(lambda2=lambda2, b_sums=b_sums, b=b, x0=state.x0)


def refresh_pattern_terms(
    state: LmmseSurrogateState, x: TrainingMatrix, r_max: float
) -> PatternTerms:
    """lambda3 and the C0 block traces of the pattern step at training x; r_max = lambda_max(R).

    The traces are lambda3 K conj(V0) - (Tw V0^H A)^T + (Z A)^T, with
    Tw[n, n'] = Tr(W_{nn'} P) and Z[n, m] = Tr(X (Xi0)_{nm} P).  Within a plain
    round x is the updated training: the pattern step sees the new X while
    staying anchored at the round's Xi0 and V0, which preserves monotone descent.
    """
    b, tau, k, p = state.v0.shape[1], x.tau, x.k, state.factors.p
    w = (x.x @ state.xi_gram.reshape(b, tau, b * tau)).reshape(-1, tau) @ x.x.conj().T
    w = w.reshape(b * k, b * k)             # (I_B kron X) Xi0 Xi0^H (I_B kron X)^H
    lambda3 = SAFETY_MARGIN * _spectral_bound(w) * r_max
    tw = np.einsum("akbl,lk->ab", w.reshape(b, k, b, k), p)
    z = np.einsum("lt,ntml->nm", p @ x.x, state.xi0.reshape(b, tau, -1, k))
    c = lambda3 * k * np.conj(state.v0) - (tw @ state.av0.conj().T).T + (z @ state.factors.a).T
    return PatternTerms(lambda3=lambda3, c=c, k=k)


def surrogate_value(state: LmmseSurrogateState, s: np.ndarray) -> float:
    """g(S; S0) of the first majorization, for domination/tangency checks."""
    r_gamma = np.kron(state.factors.a, state.factors.p)
    quad = float(np.real(np.trace(
        state.xi0.conj().T @ s.conj().T @ r_gamma @ s @ state.xi0
    )))
    lin = -2.0 * float(np.real(np.trace(state.xi0 @ r_gamma @ s)))
    const = state.sigma2 * state.l * float(np.real(np.trace(state.xi_gram)))
    return quad + lin + const


def update_training(terms: TrainingTerms, power) -> TrainingMatrix:
    """Closed-form per-UE training update of the decoupled quadratic problem.

    The solution is sqrt(P_k) b_k / ||b_k|| on the power boundary when
    ||b_k|| exceeds sqrt(P_k) lambda2 B, and b_k / (lambda2 B) inside it.
    A vanishing b_k keeps the previous training row.
    """
    power = np.asarray(power, dtype=float)
    x_new = np.empty(terms.x0.x.shape, dtype=complex)
    for uk in range(terms.x0.k):
        b_k = terms.b_sums[:, uk]
        norm_b = np.linalg.norm(b_k)
        if norm_b == 0.0:
            x_new[uk] = terms.x0.x[uk]
        elif norm_b > np.sqrt(power[uk]) * terms.lambda2 * terms.b:
            x_new[uk] = np.sqrt(power[uk]) / norm_b * b_k
        else:
            x_new[uk] = b_k / (terms.lambda2 * terms.b)
    return TrainingMatrix(x=x_new, power=power)


def update_pattern(terms: PatternTerms, model: ReflectionModel) -> ReflectionPattern:
    """Entrywise pattern update of the decoupled quadratic problem."""
    v = minimize_pattern_entries(terms.lambda3 * terms.k, -terms.c[:-1], model)
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
    factors = kronecker_factors(r_gamma, config.k)
    p_max = _spectral_bound(factors.p)
    r_max = _spectral_bound(factors.a) * p_max

    def mse_of(v: np.ndarray, x: np.ndarray) -> float:
        return mse_lmmse(v, x, factors, sigma2, l)

    def objective(pair) -> float:
        x, v = pair
        return mse_of(v.v, x.x)

    def anchor(x: TrainingMatrix, v: ReflectionPattern) -> LmmseSurrogateState:
        return build_surrogate(x, v, factors, sigma2, l)

    def mm_round(pair):
        x, v = pair
        state = anchor(x, v)
        x = update_training(training_terms(state, p_max), power)
        return x, update_pattern(refresh_pattern_terms(state, x, r_max), model)

    def squarem_round(pair, obj):
        x, v = pair
        x_arr, obj, n_x = squarem_step(
            x.x,
            lambda xa: update_training(
                training_terms(anchor(TrainingMatrix(x=xa, power=power), v), p_max), power).x,
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
