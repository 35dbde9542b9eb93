"""Phase-dependent reflection model of a non-ideal RIS element.

The reflection coefficient of an element is beta(theta) * exp(j*theta) where
the amplitude beta is a deterministic function of the phase shift theta,

    beta(theta) = (1 - beta_min) * ((sin(theta - delta) + 1) / 2)**alpha + beta_min,

parameterized by (beta_min, alpha, delta).  The module also provides the
feasibility projection (keep the phase, replace the amplitude by the law) and
the one-dimensional phase search behind both pattern-design algorithms,
:func:`minimize_pattern_entries`.

The phase search scores a dense grid, refines the best grid point by golden
section, and then scores the amplitude minimum theta_d = delta - pi/2 as one
last candidate.  For alpha < 1/2 the law has a cusp at theta_d whose dip can
be narrower than the grid spacing, and then neither the grid nor the
refinement finds a minimum that sits on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingCircuitParams

TWO_PI = 2.0 * math.pi

# Grid/refinement defaults for the one-dimensional phase search.
DEFAULT_GRID_POINTS = 1024
_GOLDEN_ITERS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CircuitParams:
    """Parallel-resonant-circuit parameters of a reflecting element.

    l1/l2 are the bottom/top layer inductances (H), r the effective
    resistance (ohm), z0 the free-space impedance (ohm) and omega the angular
    frequency of the incident signal (rad/s).
    """

    l1: float
    l2: float
    r: float
    z0: float
    omega: float


@dataclass(frozen=True)
class ReflectionModel:
    """Amplitude-phase coupling law of a reflecting element.

    beta_min is the minimum reflection amplitude, alpha the steepness of the
    amplitude curve and delta (radians) the phase offset of the amplitude
    minimum relative to -pi/2.  beta_min = 1 collapses the law to the ideal
    unit-modulus model.  Circuit parameters are optional and only used by
    :func:`circuit_reflection`.
    """

    beta_min: float = 0.2
    alpha: float = 2.0
    delta: float = 0.43 * math.pi
    circuit: CircuitParams | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta_min <= 1.0:
            raise ValueError(f"beta_min must be in [0, 1], got {self.beta_min}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        object.__setattr__(self, "delta", float(self.delta) % TWO_PI)

    @property
    def is_ideal(self) -> bool:
        return self.beta_min == 1.0


def ideal_model() -> ReflectionModel:
    """Unit-modulus reflection law (beta = 1 for every phase)."""
    return ReflectionModel(beta_min=1.0)


def amplitude_of_phase(theta, model: ReflectionModel):
    """Reflection amplitude beta(theta); accepts scalars or arrays."""
    s = (np.sin(np.asarray(theta, dtype=float) - model.delta) + 1.0) / 2.0
    out = (1.0 - model.beta_min) * s**model.alpha + model.beta_min
    if np.isscalar(theta):
        return float(out)
    return out


def reflection_coefficient(theta, model: ReflectionModel):
    """Complex reflection coefficient beta(theta) * exp(j*theta)."""
    amp = amplitude_of_phase(theta, model)
    out = amp * np.exp(1j * np.asarray(theta, dtype=float))
    if np.isscalar(theta):
        return complex(out)
    return out


def circuit_reflection(capacitance, model: ReflectionModel):
    """Reflection coefficient from the equivalent-circuit impedance.

    The element impedance is the parallel combination of the bottom-layer
    inductance and the (top inductance + capacitor + resistor) series branch;
    the coefficient is the usual impedance mismatch (Z - Z0)/(Z + Z0).
    Raises MissingCircuitParams when the model carries no circuit parameters.
    """
    p = model.circuit
    if p is None:
        raise MissingCircuitParams("ReflectionModel has no circuit parameters")
    c = np.asarray(capacitance, dtype=float)
    if np.any(c <= 0.0):
        raise ValueError("capacitance must be positive")
    jw = 1j * p.omega
    branch = jw * p.l2 + 1.0 / (jw * c) + p.r
    z = (jw * p.l1 * branch) / (jw * p.l1 + branch)
    out = (z - p.z0) / (z + p.z0)
    if np.isscalar(capacitance):
        return complex(out)
    return out


def project_to_feasible(z, model: ReflectionModel):
    """Project onto the reflection law: keep arg(z), set the amplitude.

    z = 0 maps to phase 0 by convention (np.angle(0) == 0).  Accepts scalars
    or arrays; the projection is idempotent.
    """
    theta = np.angle(np.asarray(z, dtype=complex))
    out = reflection_coefficient(theta, model)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class ScalarPhaseObjective:
    """Scalar objective q * beta(theta)^2 + 2*Re{c * beta(theta) * e^{j theta}}.

    This is the per-entry cost minimized by both pattern updates; the LS
    update uses (q, c) = (lambda1, A0[n, m]) and the LMMSE update uses
    (q, c) = (lambda3 * K, -c[m, n]).
    """

    quad_coeff: float
    lin_coeff: complex

    def __post_init__(self) -> None:
        if self.quad_coeff < 0.0:
            raise ValueError(f"quad_coeff must be >= 0, got {self.quad_coeff}")

    def evaluate(self, theta, model: ReflectionModel):
        out = _phase_cost(self.quad_coeff, self.lin_coeff,
                          np.asarray(theta, dtype=float), model)
        if np.isscalar(theta):
            return float(out)
        return out


def _phase_cost(q, c, theta, model: ReflectionModel):
    """q * beta(theta)^2 + 2*Re{c * beta(theta) * e^{j theta}}, broadcast."""
    beta = amplitude_of_phase(theta, model)
    return q * beta**2 + 2.0 * beta * (np.real(c) * np.cos(theta)
                                       - np.imag(c) * np.sin(theta))


def minimize_phase_objective(
    obj: ScalarPhaseObjective,
    model: ReflectionModel,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[float, float]:
    """Minimize a ScalarPhaseObjective over theta in [0, 2*pi).

    Dense uniform grid followed by a golden-section refinement on the
    bracketing interval of the best grid point, then the amplitude minimum
    theta_d as a last candidate; ties break toward the grid/refined point.
    Returns (theta_star, value).
    """
    thetas, values = minimize_phase_objectives(
        np.array([obj.quad_coeff]),
        np.array([obj.lin_coeff]),
        model,
        grid_points=grid_points,
    )
    return float(thetas[0]), float(values[0])


def minimize_phase_objectives(
    quad_coeffs: np.ndarray,
    lin_coeffs: np.ndarray,
    model: ReflectionModel,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized phase search for a batch of (q, c) objectives.

    Same algorithm as :func:`minimize_phase_objective` applied entrywise;
    both pattern updates reach it through :func:`minimize_pattern_entries`.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    q = np.asarray(quad_coeffs, dtype=float).ravel()
    c = np.asarray(lin_coeffs, dtype=complex).ravel()
    if q.shape != c.shape:
        raise ValueError("quad_coeffs and lin_coeffs must have the same length")

    grid = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    # (E, G) objective table; argmin picks the first (smallest-theta) minimum.
    vals = _phase_cost(q[:, None], c[:, None], grid[None, :], model)
    best = np.argmin(vals, axis=1)
    theta0 = grid[best]
    f0 = vals[np.arange(q.size), best]

    def f(theta: np.ndarray) -> np.ndarray:
        return _phase_cost(q, c, theta, model)

    # Golden-section refinement on the bracketing interval of each best point.
    span = TWO_PI / grid_points
    a = theta0 - span
    b = theta0 + span
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(_GOLDEN_ITERS):
        shrink_right = f1 <= f2
        b = np.where(shrink_right, x2, b)
        a = np.where(shrink_right, a, x1)
        x1_new = b - _INVPHI * (b - a)
        x2_new = a + _INVPHI * (b - a)
        # Reuse the surviving interior evaluation, recompute the other one.
        x1, x2 = np.where(shrink_right, x1_new, x2), np.where(shrink_right, x1, x2_new)
        f_keep = np.where(shrink_right, f1, f2)
        f_new = f(np.where(shrink_right, x1, x2))
        f1 = np.where(shrink_right, f_new, f_keep)
        f2 = np.where(shrink_right, f_keep, f_new)

    theta_ref = np.where(f1 <= f2, x1, x2)
    f_ref = np.minimum(f1, f2)

    take_ref = f_ref < f0
    theta_star = np.where(take_ref, theta_ref, theta0) % TWO_PI
    value = np.where(take_ref, f_ref, f0)

    # The amplitude minimum, where the law has a cusp for alpha < 1/2.
    theta_d = (model.delta - 0.5 * math.pi) % TWO_PI
    f_d = _phase_cost(q, c, theta_d, model)
    take_d = f_d < value
    return np.where(take_d, theta_d, theta_star), np.where(take_d, f_d, value)


def minimize_pattern_entries(
    q: float,
    c: np.ndarray,
    model: ReflectionModel,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Entrywise pattern step: the (M+1, B) minimizer of the separable cost.

    Entry (m, n) minimizes q |v|^2 + 2 Re{c[m, n] v} over the reflection law
    (the phase search with quad coeff q and lin coeff c[m, n]); the all-ones
    direct-link row is appended.  c is the (M, B) matrix of linear
    coefficients.
    """
    m, b = c.shape
    thetas, _ = minimize_phase_objectives(np.full(m * b, q), c, model, grid_points)
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = reflection_coefficient(thetas, model).reshape(m, b)
    return v
