"""LMMSE-criterion design: MM-based alternating training/pattern updates.

The design objective is g(S) = -Tr[R S (S^H R S + sigma^2 L I)^{-1} S^H R]
with S = (V kron I_K)(I_B kron X).  At an anchor S0 the convexity bound
gives the quadratic-plus-linear majorizer

    g(S; S0) = Tr[Xi0^H S^H R S Xi0] - 2 Re{Tr[Xi0 R S]} + sigma^2 L Tr[Xi0 Xi0^H],
    Xi0      = (S0^H R S0 + sigma^2 L I)^{-1} S0^H R,

which is majorized once more per block to decouple the variables:

  * training: per UE, minimize mu_X ||x_k||^2 - 2 Re{b_k^H x_k} under
    ||x_k||^2 <= P_k, solved in closed form (boundary or interior branch);
  * pattern: per entry, minimize mu_V |v|^2 - 2 Re{c_{m,n} v} over the reflection
    law by the phase search :func:`~risce.phase_model.minimize_pattern_entries`.

An MM update reads only these majorizers' minimizers, so their values are
never built; the rounds score J_LMMSE = Tr[R] + g(S) by :func:`~risce.system.mse_lmmse`.

R = kron(A, P) (:func:`~risce.channel.kronecker_factors`) and S0 = V0 kron X0, so
Xi0 = (U1 kron U2) diag(1 / (d1 kron d2 + sigma^2 L)) (U1^H V0^H A kron U2^H X0^H P)
with (d1, U1) = eigh(V0^H A V0) and (d2, U2) = eigh(X0^H P X0): no (M+1)K-sized
solve.  Each step builds only what it reads, by contracting Xi0 and Xi0 Xi0^H
with the factors: the per-UE sums b_k of B0's diagonal blocks
(:func:`training_terms`), and the K x K block traces of C0 at the X the pattern
step sees (:func:`refresh_pattern_terms`; in a plain round, the updated X).

The curvatures are exact, not the paper's looser lambda2 B and lambda3 K: any
mu >= lambda_max of a quadratic's Hessian gives a majorizer mu ||x||^2 (Sun,
Babu & Palomar 2017).  With G = Xi0 Xi0^H in tau x tau blocks G_{bb'},
expanding S = V kron X blockwise turns the quadratic of g(S; S0) into

    Tr[R S G S^H] = Tr[P X T2 X^H] = Tr[A V Tw V^H],
    T2 = sum_{b,b'} (V^H A V)_{b'b} G_{bb'},   Tw_{bb'} = Tr[G_{bb'} X^H P X],

so its Hessian is T2^T kron P in vec(X) and Tw^T kron A in vec(V), whose
lambda_max is the product of its PSD factors'.  Hence mu_X = lambda_max(T2)
lambda_max(P) at V0 and mu_V = lambda_max(Tw) lambda_max(A) at the X the step
sees, each times SAFETY_MARGIN; restricting V to its first M rows cannot raise
lambda_max (Cauchy interlacing).  lambda_max(A), lambda_max(P) are computed once.

The rounds run on :func:`risce.accel.mm_loop` over the pair of bare arrays
(X, V); :func:`design_lmmse` validates its initial point and builds a
TrainingMatrix and a ReflectionPattern for its result only.  Both kinds of
round use the same two block maps: the training update at an anchor, and
the pattern update at an anchor and the X it sees.  A plain round is one MM
update (one anchor for both maps, a tau x tau and a B x B eigen-solve); a
SQUAREM round takes one SQUAREM step per block, training then pattern, each
update at its own anchor, so four MM updates.
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

# Multiplicative slack on the exact block curvatures: a curvature equal to the
# Hessian's lambda_max lets the bound touch the quadratic along the top
# eigenvector, where rounding alone could break the majorization.
SAFETY_MARGIN = 1.0001


class LmmseSurrogateState(NamedTuple):
    """Anchor of the first majorization, shared by the two block steps."""

    xi0: np.ndarray        # (tau*B, (M+1)*K)
    xi_gram: np.ndarray    # Xi0 Xi0^H, (tau*B, tau*B)
    av0: np.ndarray        # A V0, (M+1, B)
    x0: np.ndarray         # (K, tau)
    v0: np.ndarray         # (M+1, B)
    factors: KroneckerFactors


class TrainingTerms(NamedTuple):
    """Second majorization of the training block at the anchor."""

    curvature: float       # mu_X
    b_sums: np.ndarray     # (tau, K); column k is b_k
    x0: np.ndarray         # (K, tau); a vanishing b_k keeps its row


class PatternTerms(NamedTuple):
    """Second majorization of the pattern block at one training X."""

    curvature: float       # mu_V
    c: np.ndarray          # (M+1, B); c[m, n] is the trace of C0's block (n, m)


def build_surrogate(x0: np.ndarray, v0: np.ndarray, factors: KroneckerFactors,
                    sigma2: float, l: int) -> LmmseSurrogateState:
    """Compute the anchor Xi0 and Xi0 Xi0^H at (X0, V0) from the factors."""
    av0, xp = factors.a @ v0, x0.conj().T @ factors.p
    d1, u1 = np.linalg.eigh(numerics.require_hermitian(v0.conj().T @ av0))
    d2, u2 = np.linalg.eigh(numerics.require_hermitian(xp @ x0))
    right = np.kron(u1.conj().T @ av0.conj().T, u2.conj().T @ xp)
    # Pseudo-inverse anchor: drop rounding-level directions (sigma2 = 0 and a singular factor).
    den = np.kron(d1, d2) + sigma2 * l
    kept = den > den.size * np.finfo(float).eps * np.max(den)
    xi0 = np.divide(np.kron(u1, u2), den, out=np.zeros((den.size,) * 2, complex), where=kept) @ right
    return LmmseSurrogateState(xi0, xi0 @ xi0.conj().T, av0, x0, v0, factors)


def training_terms(state: LmmseSurrogateState, p_max: float) -> TrainingTerms:
    """mu_X and the b_k of the training step at (X0, V0); p_max is lambda_max(P).

    b_k is column k of conj(mu_X X0^H - T2 X0^H P + T3 P), with T2 =
    sum_{b,b'} [V0^H A V0]_{b'b} (Xi0 Xi0^H)_{bb'} and T3 = sum_{b,m} [A V0]_{mb} (Xi0)_{bm}.
    """
    b, (k, tau) = state.v0.shape[1], state.x0.shape
    t2 = np.einsum("asbt,ba->st", state.xi_gram.reshape(b, tau, b, tau),
                   state.v0.conj().T @ state.av0)
    curvature = SAFETY_MARGIN * numerics.largest_eigenvalue(t2).value * p_max
    t3 = np.einsum("atmk,ma->tk", state.xi0.reshape(b, tau, -1, k), state.av0)
    x0h, p = state.x0.conj().T, state.factors.p
    b_sums = np.conj(curvature * x0h - t2 @ x0h @ p + t3 @ p)
    return TrainingTerms(curvature=curvature, b_sums=b_sums, x0=state.x0)


def refresh_pattern_terms(
    state: LmmseSurrogateState, x: np.ndarray, a_max: float
) -> PatternTerms:
    """mu_V and the C0 block traces of the pattern step at training x; a_max = lambda_max(A).

    The traces are mu_V conj(V0) - (Tw V0^H A)^T + (Z A)^T, with
    Tw[n, n'] = Tr((Xi0 Xi0^H)_{nn'} X^H P X) and Z[n, m] = Tr(X (Xi0)_{nm} P).  Within a plain
    round x is the updated training: the pattern step sees the new X while
    staying anchored at the round's Xi0 and V0, which preserves monotone descent.
    """
    b, (k, tau), p = state.v0.shape[1], x.shape, state.factors.p
    tw = np.einsum("asbt,ts->ab", state.xi_gram.reshape(b, tau, b, tau), x.conj().T @ p @ x)
    curvature = SAFETY_MARGIN * numerics.largest_eigenvalue(tw).value * a_max
    z = np.einsum("lt,ntml->nm", p @ x, state.xi0.reshape(b, tau, -1, k))
    c = curvature * np.conj(state.v0) - (tw @ state.av0.conj().T).T + (z @ state.factors.a).T
    return PatternTerms(curvature=curvature, c=c)


def update_training(terms: TrainingTerms, power) -> np.ndarray:
    """Closed-form per-UE (K, tau) training update of the decoupled quadratic problem.

    The solution is sqrt(P_k) b_k / ||b_k|| on the power boundary when
    ||b_k|| exceeds sqrt(P_k) mu_X, and b_k / mu_X inside it.
    A vanishing b_k keeps the previous training row.
    """
    power = np.asarray(power, dtype=float)
    x_new = np.empty(terms.x0.shape, dtype=complex)
    for uk in range(terms.x0.shape[0]):
        b_k = terms.b_sums[:, uk]
        norm_b = np.linalg.norm(b_k)
        if norm_b == 0.0:
            x_new[uk] = terms.x0[uk]
        elif norm_b > np.sqrt(power[uk]) * terms.curvature:
            x_new[uk] = np.sqrt(power[uk]) / norm_b * b_k
        else:
            x_new[uk] = b_k / terms.curvature
    return x_new


def update_pattern(terms: PatternTerms, model: ReflectionModel) -> np.ndarray:
    """Entrywise (M+1, B) pattern update of the decoupled quadratic problem."""
    return minimize_pattern_entries(terms.curvature, -terms.c[:-1], model)


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
    p_max = numerics.largest_eigenvalue(factors.p).value
    a_max = numerics.largest_eigenvalue(factors.a).value

    def objective(pair) -> float:
        x, v = pair
        return mse_lmmse(v, x, factors, sigma2, l)

    def anchor(x: np.ndarray, v: np.ndarray) -> LmmseSurrogateState:
        return build_surrogate(x, v, factors, sigma2, l)

    # The block maps: a pattern update sees the x of its round, not the anchor's.
    def train(state: LmmseSurrogateState) -> np.ndarray:
        return update_training(training_terms(state, p_max), power)

    def pattern(state: LmmseSurrogateState, x: np.ndarray) -> np.ndarray:
        return update_pattern(refresh_pattern_terms(state, x, a_max), model)

    def mm_round(pair):
        state = anchor(*pair)
        x = train(state)
        return x, pattern(state, x)

    def squarem_round(pair, obj):
        x, v = pair
        x, obj, n_x = squarem_step(
            x, lambda xa: train(anchor(xa, v)), lambda xa: project_training_rows(xa, power),
            lambda xa: objective((xa, v)), obj)
        v, obj, n_v = squarem_step(
            v, lambda va: pattern(anchor(x, va), x), lambda va: project_pattern(va, model),
            lambda va: objective((x, va)), obj)
        return (x, v), obj, n_x + n_v

    step = squarem_round if accelerate else plain_step(mm_round, objective)
    x0 = dft_training(config.k, config.tau, power)
    (x, v), trace = mm_loop((x0.x, init_v.v), step, objective, eps, max_iter)
    return TrainingMatrix(x=x, power=power), ReflectionPattern(v=v), trace
