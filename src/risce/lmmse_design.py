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
never built; the rounds score J_LMMSE = Tr[R] + g(S) by :func:`~risce.system.lmmse_score`.

R = kron(A, P) and S0 = V0 kron X0, so Xi0 = (U1 kron U2) diag(dinv) (F1 kron F2) is
:func:`~risce.system.lmmse_filter` at the anchor, the filter the LMMSE estimator applies.  As
U1^H V0^H A V0 U1 = diag(lam1), a step's block sums are products of arrays sized M+1, K, B or
tau, none (M+1)K or tau B: the per-UE b_k of B0's diagonal blocks (:func:`training_terms`) and
the K x K block traces of C0 at the pattern step's X (:func:`refresh_pattern_terms`).

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
lambda_max (Cauchy interlacing).  T2 = U2 H U2^H and Tw = U1 Kw U1^H for the K x K H
and the (M+1) x (M+1) Kw the steps build; lambda_max(A), lambda_max(P) are computed once.

The rounds run on :func:`risce.accel.mm_loop` over the pair of bare arrays
(X, V), started, as for LS, at the DFT training and the pattern
:func:`~risce.baselines.start_pattern` makes of :func:`design_lmmse`'s init; it builds a
TrainingMatrix and a ReflectionPattern for its result only.  Both kinds of
round use the same two block maps: the training update at an anchor, and
the pattern update at an anchor and the X it sees, each anchored on the spectra
that scored its iterate.  A plain round is one MM update, then one (M+1)- and one
K-sized eigen-solve of the new iterate for its J and the next anchor; a SQUAREM
round is one SQUAREM step per block, training then pattern (four MM updates),
each of whose scores re-decomposes only the K- or (M+1)-sized side it moves.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from . import numerics
from .accel import DEFAULT_EPS, mm_loop, plain_step, round_budget, squarem_step
from .baselines import dft_training, start_pattern
from .channel import KroneckerFactors, kronecker_factors
from .errors import ConfigError, DimensionMismatch
from .phase_model import (
    ReflectionModel,
    minimize_pattern_entries,
    minimize_phase_objectives,  # noqa: F401  perfbench/selftest.py checks the tracer rebinds it here
    project_pattern,
)
from .system import ReflectionPattern, TrainingMatrix, lmmse_filter, lmmse_score, lmmse_spectrum
from .types import DesignTrace, SystemConfig

# Multiplicative slack on the exact block curvatures: a curvature equal to the
# Hessian's lambda_max lets the bound touch the quadratic along the top
# eigenvector, where rounding alone could break the majorization.
SAFETY_MARGIN = 1.0001


class LmmseSurrogateState(NamedTuple):
    """Anchor of the first majorization in factors, Xi0 = (U1 kron U2) diag(dinv) (F1 kron F2)."""

    u1: np.ndarray         # V0^H A^1/2 E1 diag(lam1)^-1/2, 0 where lam1 is cut, (B, M+1)
    u2: np.ndarray         # X0^H P^1/2 E2 diag(lam2)^-1/2, 0 where lam2 is cut, (tau, K)
    f1: np.ndarray         # diag(lam1)^1/2 E1^H A^1/2 = U1^H V0^H A, (M+1, M+1)
    f2: np.ndarray         # diag(lam2)^1/2 E2^H P^1/2 = U2^H X0^H P, (K, K)
    f2f2: np.ndarray       # F2 F2^H, (K, K)
    dinv: np.ndarray       # 1 / (lam1_i lam2_j + sigma^2 L), 0 where not > 0, (M+1, K)
    w1: np.ndarray         # lam1 times F1's squared row norms, (M+1,)
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
    v0: np.ndarray         # (M+1, B); the anchor, whose phases start the step


def build_surrogate(x0: np.ndarray, v0: np.ndarray, spectra, factors: KroneckerFactors,
                    sigma2: float, l: int) -> LmmseSurrogateState:
    """Xi0 at (X0, V0): :func:`~risce.system.lmmse_filter` of their spectra, the estimator's W."""
    u1, u2, dinv, f1, f2 = lmmse_filter(spectra, v0, x0, sigma2, l)
    w1 = spectra[0][0] * np.sum(np.abs(f1) ** 2, axis=1)
    return LmmseSurrogateState(u1, u2, f1, f2, f2 @ f2.conj().T, dinv, w1, x0, v0, factors)


def training_terms(state: LmmseSurrogateState, p_max: float) -> TrainingTerms:
    """mu_X and the b_k of the training step at (X0, V0); p_max is lambda_max(P).

    b_k is column k of conj(mu_X X0^H - T2 X0^H P + T3 P) = conj(mu_X X0^H - U2 (H F2 - T P)),
    with T2 = U2 H U2^H, H = (F2 F2^H) o (dinv^T diag(w1) dinv), T3 = U2 T and
    T = diag(e1 dinv) F2, where e1 holds F1's squared row norms.
    """
    f2, dinv = state.f2, state.dinv
    h = state.f2f2 * (dinv.T @ (state.w1[:, None] * dinv))
    curvature = SAFETY_MARGIN * numerics.largest_eigenvalue(h).value * p_max
    t = (np.sum(np.abs(state.f1) ** 2, axis=1) @ dinv)[:, None] * f2
    b_sums = np.conj(curvature * state.x0.conj().T - state.u2 @ (h @ f2 - t @ state.factors.p))
    return TrainingTerms(curvature=curvature, b_sums=b_sums, x0=state.x0)


def refresh_pattern_terms(
    state: LmmseSurrogateState, x: np.ndarray, a_max: float
) -> PatternTerms:
    """mu_V and the C0 block traces of the pattern step at training x; a_max = lambda_max(A).

    The traces are mu_V conj(V0) - (Tw V0^H A)^T + (Z A)^T, with Tw = U1 Kw U1^H,
    Kw = (F1 F1^H) o (dinv ((F2 F2^H) o conj(U2^H X^H P X U2)) dinv^T), and
    Z = U1 diag(dinv g) F1, g = diag(F2 P X U2).  Within a plain
    round x is the updated training: the pattern step sees the new X while
    staying anchored at the round's Xi0 and V0, which preserves monotone descent.
    """
    f1, f2, dinv, pxu2 = state.f1, state.f2, state.dinv, state.factors.p @ x @ state.u2
    kw = f1 @ f1.conj().T * (dinv @ (state.f2f2 * ((x @ state.u2).T @ pxu2.conj())) @ dinv.T)
    curvature = SAFETY_MARGIN * numerics.largest_eigenvalue(kw).value * a_max
    z = (dinv @ np.sum(f2 * pxu2.T, axis=1))[:, None] * f1
    c = curvature * np.conj(state.v0) + (state.u1 @ (z @ state.factors.a - kw @ f1)).T
    return PatternTerms(curvature=curvature, c=c, v0=state.v0)


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
    """Entrywise (M+1, B) pattern update of the decoupled quadratic problem, from V0."""
    return minimize_pattern_entries(terms.curvature, -terms.c, model, terms.v0)


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
    init: ReflectionPattern | None = None,
    eps: float = DEFAULT_EPS,
    max_iter: int | None = None,
    accelerate: bool = False,
) -> tuple[TrainingMatrix, ReflectionPattern, DesignTrace]:
    """Alternate training and pattern updates until the MSE change is < eps.

    Starts and stops as design_ls does, from the DFT training too;
    DimensionMismatch unless r_gamma is (M+1)K square.  The trace records
    J_LMMSE per iteration (non-increasing) and the cumulative number of MM
    updates (surrogate rebuilds); with accelerate=True each block update is
    wrapped in a monotone SQUAREM step with its own projection.
    """
    if np.shape(r_gamma) != ((config.m + 1) * config.k,) * 2:
        raise DimensionMismatch(f"R {np.shape(r_gamma)} is not the config's (M+1)K square")
    v0 = start_pattern(config, model, init)

    sigma2, l = config.sigma2, config.l
    power = config.power
    factors = kronecker_factors(r_gamma, config.k)
    p_max = numerics.largest_eigenvalue(factors.p).value
    # refresh_pattern_terms' entrywise K x K product reaches power^2 lambda_max(P)^3 at the
    # DFT start; 1e-12 covers the rounding of a power read off an SNR.
    if max(power) > np.sqrt(np.finfo(float).max / (1.0 + 1e-12) / p_max**3):
        raise ConfigError(f"power {max(power)} overflows the LMMSE design")
    a_max = numerics.largest_eigenvalue(factors.a).value

    anchor = partial(build_surrogate, factors=factors, sigma2=sigma2, l=l)
    v_spectrum = partial(lmmse_spectrum, factors.a_half)
    x_spectrum = partial(lmmse_spectrum, factors.p_half)

    # The block maps: a pattern update sees the x of its round, not the anchor's.
    def train(state: LmmseSurrogateState) -> np.ndarray:
        return update_training(training_terms(state, p_max), power)

    def pattern(state: LmmseSurrogateState, x: np.ndarray) -> np.ndarray:
        return update_pattern(refresh_pattern_terms(state, x, a_max), model)

    # An iterate's spectrum is the pair (V's, X's) that J is read off.
    def score(*spectra):
        return lmmse_score(spectra, sigma2, l), spectra

    def score_pair(pair):
        return score(v_spectrum(pair[1]), x_spectrum(pair[0]))

    def mm_round(pair, spectra):
        state = anchor(*pair, spectra)
        x = train(state)
        return x, pattern(state, x)

    # Each SQUAREM block re-decomposes only the side it moves.
    def squarem_round(pair, obj, spectra):
        (x, v), (v_side, _) = pair, spectra
        x, obj, spectra, n_x = squarem_step(
            x, obj, spectra, lambda xa, sp: train(anchor(xa, v, sp)),
            lambda xa: project_training_rows(xa, power), lambda xa: score(v_side, x_spectrum(xa)))
        x_side = spectra[1]
        v, obj, spectra, n_v = squarem_step(
            v, obj, spectra, lambda va, sp: pattern(anchor(x, va, sp), x),
            lambda va: project_pattern(va, model), lambda va: score(v_spectrum(va), x_side))
        return (x, v), obj, spectra, n_x + n_v

    step = squarem_round if accelerate else plain_step(mm_round, score_pair)
    x0 = dft_training(config.k, config.tau, power)
    (x, v), trace = mm_loop((x0.x, v0), step, score_pair, eps, round_budget(max_iter, accelerate))
    return TrainingMatrix(x=x, power=power), ReflectionPattern(v=v), trace
