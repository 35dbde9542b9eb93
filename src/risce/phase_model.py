"""Phase-dependent reflection model of a non-ideal RIS element.

The reflection coefficient of an element is beta(theta) * exp(j*theta) where
the amplitude beta is a deterministic function of the phase shift theta,

    beta(theta) = (1 - beta_min) * ((sin(theta - delta) + 1) / 2)**alpha + beta_min,

parameterized by (beta_min, alpha, delta).  The module also provides the
feasibility projection (keep the phase, replace the amplitude by the law) and
the one-dimensional phase search behind both pattern-design algorithms,
:func:`minimize_pattern_entries`.

The phase search is exact under the ideal law.  Otherwise it scores a fixed
grid of GRID_POINTS phases, refines the best point by safeguarded Newton
(for alpha < 1, the best point on each side of the cusp at
theta_d = delta - pi/2) and scores theta_d last.
For alpha < 1/2 a dip at the cusp can be narrower than the grid spacing,
and then neither the grid nor the refinement finds a minimum that sits on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Grid size and Newton limits of the one-dimensional phase search.
GRID_POINTS = 1024
_NEWTON_CAP = 60
_STEP_ULPS = 4


@dataclass(frozen=True)
class ReflectionModel:
    """Amplitude-phase coupling law of a reflecting element.

    beta_min is the minimum reflection amplitude, alpha the steepness of the
    amplitude curve and delta (radians) the phase offset of the amplitude
    minimum relative to -pi/2.  beta_min = 1 collapses the law to the ideal
    unit-modulus model.
    """

    beta_min: float = 0.2
    alpha: float = 2.0
    delta: float = 0.43 * math.pi

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


def _phase_cost(q, c, theta, model: ReflectionModel):
    """q * beta(theta)^2 + 2*Re{c * beta(theta) * e^{j theta}}, broadcast.

    The per-entry cost of both pattern updates: (q, c) = (lambda1, A0[n, m])
    for LS and (lambda3 * K, -c[m, n]) for LMMSE.
    """
    beta = amplitude_of_phase(theta, model)
    return q * beta**2 + 2.0 * beta * (np.real(c) * np.cos(theta)
                                       - np.imag(c) * np.sin(theta))


@lru_cache(maxsize=16)
def _search_grid(model: ReflectionModel) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grid and (3, GRID_POINTS) basis [beta^2; 2 beta cos; -2 beta sin].

    For alpha < 1 the grid starts half a step past the cusp at theta_d.
    """
    start = _amplitude_minimum(model) + math.pi / GRID_POINTS if model.alpha < 1.0 else 0.0
    grid = np.linspace(start, start + TWO_PI, GRID_POINTS, endpoint=False)
    beta = amplitude_of_phase(grid, model)
    basis = np.stack([beta**2, 2.0 * beta * np.cos(grid), -2.0 * beta * np.sin(grid)])
    grid.flags.writeable = basis.flags.writeable = False
    return grid, basis


def _amplitude_minimum(model: ReflectionModel) -> float:
    """theta_d = delta - pi/2 in [0, 2*pi), where beta = beta_min."""
    return (model.delta - 0.5 * math.pi) % TWO_PI


def _phase_cost_slopes(q, c_re, c_im, theta, model: ReflectionModel):
    """First and second theta-derivatives of :func:`_phase_cost` at c = c_re + j c_im.

    beta'' uses cos^2 u = 2 s (1 - sin u), so both are finite for alpha >= 1;
    below that the caller sets the floating-point error state.
    """
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    sin_u, cos_u = np.sin(theta - model.delta), np.cos(theta - model.delta)
    s, a, k = 0.5 * (sin_u + 1.0), model.alpha, 1.0 - model.beta_min
    g = c_re * cos_t - c_im * sin_t    # Re{c e^{j theta}}
    dg = -c_re * sin_t - c_im * cos_t
    p = s ** (a - 1.0)
    beta, p = k * p * s + model.beta_min, 0.5 * a * k * p
    d_beta, dd_beta = p * cos_u, p * (a - 1.0 - a * sin_u)
    d1 = 2.0 * (d_beta * (q * beta + g) + beta * dg)
    d2 = 2.0 * (q * (d_beta**2 + beta * dd_beta) + dd_beta * g
                + 2.0 * d_beta * dg - beta * g)
    return d1, d2


def _newton_refine(q, c, x, lo, hi, model: ReflectionModel) -> np.ndarray:
    """Safeguarded Newton on f' from x inside [lo, hi], entrywise.

    Bisects where a step is not finite, has f'' <= 0 or leaves the bracket;
    an entry stops once it moves at most _STEP_ULPS ulps of 2 pi.  A point
    where f' is not finite (s rounds to 0 next to the alpha < 1 cusp) leaves
    the bracket as it is.  The live set shrinks only when an entry stops.
    """
    shape = x.shape
    q, c, x, lo, hi = (np.broadcast_to(v, shape).ravel() for v in (q, c, x, lo, hi))
    c_re, c_im = c.real, c.imag
    out, live = x.copy(), np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_CAP):
            d1, d2 = _phase_cost_slopes(q, c_re, c_im, x, model)
            lo, hi = np.where(d1 <= 0.0, x, lo), np.where(d1 > 0.0, x, hi)
            step = x - d1 / d2
            x_new = np.where((d2 > 0.0) & (step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            out[live] = x_new
            moving = np.abs(x_new - x) > _STEP_ULPS * np.spacing(TWO_PI)
            if not moving.all():
                if not moving.any():
                    break
                live, q, c_re, c_im, lo, hi, x_new = (
                    v[moving] for v in (live, q, c_re, c_im, lo, hi, x_new))
            x = x_new
    return out.reshape(shape)


def minimize_phase_objectives(
    quad_coeffs: np.ndarray,
    lin_coeffs: np.ndarray,
    model: ReflectionModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize q * beta(theta)^2 + 2*Re{c * beta(theta) * e^{j theta}} per entry.

    Batched over the (q, c) pairs, theta in [0, 2*pi).  Under the ideal law
    the step is exact: pi - arg(c), or 0 when c = 0.  Otherwise the best grid
    point (for alpha < 1, of each side of the cusp theta_d) is refined by
    safeguarded Newton within one grid step and kept only if strictly better;
    theta_d is scored last.  Ties break toward the grid point.  Returns the
    minimizing thetas and their values.  Both pattern updates reach it
    through :func:`minimize_pattern_entries`.
    """
    q = np.asarray(quad_coeffs, dtype=float).ravel()
    c = np.asarray(lin_coeffs, dtype=complex).ravel()
    if q.shape != c.shape:
        raise ValueError("quad_coeffs and lin_coeffs must have the same length")
    if model.is_ideal:   # q + 2|c| cos(theta + arg c) is least at pi - arg c
        return np.where(c == 0.0, 0.0, (math.pi - np.angle(c)) % TWO_PI), q - 2.0 * np.abs(c)

    grid, basis = _search_grid(model)
    vals = np.stack([q, c.real, c.imag], axis=1) @ basis    # (E, G)
    theta_d, span = _amplitude_minimum(model), TWO_PI / GRID_POINTS
    cuts, lo, hi = [0, GRID_POINTS], -np.inf, np.inf
    if model.alpha < 1.0:   # a slice per side of the cusp; no bracket crosses it
        cuts, lo, hi = [0, GRID_POINTS // 2, GRID_POINTS], theta_d, theta_d + TWO_PI
    best = np.stack([i + np.argmin(vals[:, i:j], axis=1)    # first best of each slice
                     for i, j in zip(cuts[:-1], cuts[1:])], axis=1)
    theta0, qc, cc = grid[best], q[:, None], c[:, None]
    refined = _newton_refine(qc, cc, theta0, np.maximum(theta0 - span, lo),
                             np.minimum(theta0 + span, hi), model)
    cand = np.concatenate([refined % TWO_PI, np.full_like(qc, theta_d)], axis=1)
    # Grid points first, so refined points and theta_d must be strictly better.
    thetas = np.concatenate([theta0 % TWO_PI, cand], axis=1)
    values = np.concatenate([np.take_along_axis(vals, best, axis=1),
                             _phase_cost(qc, cc, cand, model)], axis=1)
    pick = np.argmin(values, axis=1)[:, None]
    return (np.take_along_axis(thetas, pick, axis=1)[:, 0],
            np.take_along_axis(values, pick, axis=1)[:, 0])


def minimize_pattern_entries(
    q: float,
    c: np.ndarray,
    model: ReflectionModel,
) -> np.ndarray:
    """Entrywise pattern step: the (M+1, B) minimizer of the separable cost.

    Entry (m, n) minimizes q |v|^2 + 2 Re{c[m, n] v} over the reflection law
    (the phase search with quad coeff q and lin coeff c[m, n]); the all-ones
    direct-link row is appended.  c is the (M, B) matrix of linear
    coefficients.
    """
    m, b = c.shape
    thetas, _ = minimize_phase_objectives(np.full(m * b, q), c, model)
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = reflection_coefficient(thetas, model).reshape(m, b)
    return v
