"""Phase-dependent reflection model of a non-ideal RIS element.

The reflection coefficient of an element is beta(theta) * exp(j*theta) where
the amplitude beta is a deterministic function of the phase shift theta,

    beta(theta) = (1 - beta_min) * ((sin(theta - delta) + 1) / 2)**alpha + beta_min,

parameterized by (beta_min, alpha, delta).  The module also provides the
feasibility projection (keep the phase, replace the amplitude by the law) and
the one-dimensional phase search behind both pattern-design algorithms,
:func:`minimize_pattern_entries`.

The phase search is exact under the ideal law.  Otherwise it scores a fixed
grid of GRID_POINTS phases and theta_d = delta - pi/2, then refines the best
grid point (for alpha < 1, the best point on each side of the cusp at
theta_d) by a safeguarded iteration on f'.  Each derivative of the cost is
linear in (q, Re c, Im c), so a table of the basis's first three
derivatives at the grid points gives f', f'' and f''' at the start from
one gather and one contraction.  The steps are Halley's with that f'''
(after the first, Newton's below alpha = 1), and an entry stops once the
error a Newton step s would leave, |f''' / (2 f'')| s^2, is at most
_STEP_TOL; most entries need one slope evaluation.
For alpha < 1/2 a dip at the cusp can be narrower than the grid spacing,
and then neither the grid nor the refinement finds a minimum that sits on it.

For q > 0 the cost is q |v - z|^2 - |c|^2 / q with z = -conj(c) / q: the
search wants the law point nearest z.  For alpha >= 1 an entry first takes
Newton steps from a start phase, the local step.  Where they converged and, by
either of two lower bounds, no phase outside a window around their end costs
less than the end's value minus the slack 1e-12 (q + 3|c|), the end is
certified (its window is taken to hold no other basin) and only the other
entries run the global search.  The ray bound: the point at phase theta is on
the ray at angle theta, so it costs at least -(|c| cos(theta - arg z))^2 / q;
the window is _BAND grid steps either side of arg z.  The sector bound cuts
the circle into _SECTORS sectors and at theta_d, theta_d + pi and the ends of
the tip, where beta <= 2 beta_min: on a piece the cost is at least
q t (t - 2 p), p = |z| cos(the angle from arg z to the piece, 0 on it), t = p
clipped to the piece's edge amplitudes.  Its window is the end's sector and
the two next to it, less the pieces on theta_d's other side and, if the tip
reaches less than 4 sectors either side, the tip if the end is off it or the
rest if on it (a basin on the tip can lie by a lower one on the arm).

Everything the global search reads per law (grid, basis, derivative table and
theta_d) is one read-only record, :func:`_tables`, cached for the last law
only: a design keeps one law; the ideal law and the local step never read it.
A caller that alternates laws rebuilds the record, about 0.3 ms, per switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Grid size, the ray bound's reach in grid steps and Newton limits of the phase
# search, and the anchored step's step count, longest step and last-step bound.
GRID_POINTS = 1024
_BAND = 8
# The least unanchored batch that starts at arg z.  Below it (desk LMMSE
# steps) 39-59% of entries certify, and the step costs more than it saves.
_BAND_BATCH = 128
_NEWTON_CAP = 60
_STEP_TOL = 4 * float(np.spacing(TWO_PI))   # 4 ulps of 2 pi
_ANCHOR_STEPS, _ANCHOR_REACH, _ANCHOR_TOL = 4, 0.2, 1e-6
_SECTORS = 64   # phase sectors of the sector bound (module docstring)


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
    return (1.0 - model.beta_min) * s**model.alpha + model.beta_min


def reflection_coefficient(theta, model: ReflectionModel):
    """Complex reflection coefficient beta(theta) * exp(j*theta)."""
    return amplitude_of_phase(theta, model) * np.exp(1j * np.asarray(theta, dtype=float))


def project_to_feasible(z, model: ReflectionModel):
    """Project onto the reflection law: keep arg(z), set the amplitude.

    z = 0 maps to phase 0 by convention (np.angle(0) == 0).  Accepts scalars
    or arrays; the projection is idempotent.
    """
    return reflection_coefficient(np.angle(np.asarray(z, dtype=complex)), model)


def _phase_cost(q, c, theta, model: ReflectionModel):
    """q * beta(theta)^2 + 2*Re{c * beta(theta) * e^{j theta}}, broadcast.

    The per-entry cost of both pattern updates: (q, c) = (lambda1, A0[n, m])
    for LS and (mu_V, -c[m, n]) for LMMSE.
    """
    beta = amplitude_of_phase(theta, model)
    return q * beta**2 + 2.0 * beta * (np.real(c) * np.cos(theta)
                                       - np.imag(c) * np.sin(theta))


def _phase_cost_slopes(q, c_re, c_im, theta, model: ReflectionModel):
    """First and second theta-derivatives of :func:`_phase_cost` at c = c_re + j c_im, and f.

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
    return d1, d2, beta * (q * beta + 2.0 * g)


class _Tables(NamedTuple):
    """Read-only per-law state of the phase search, from :func:`_tables`."""

    grid: np.ndarray         # (GRID_POINTS,) phases
    basis: np.ndarray        # (3, GRID_POINTS): [beta^2; 2 beta cos; -2 beta sin]
    slopes: np.ndarray       # (GRID_POINTS, 3, 3) theta-derivatives of the basis
    theta_d: float           # delta - pi/2 in [0, 2*pi), where beta = beta_min
    at_theta_d: np.ndarray   # (3,) basis at theta_d


@lru_cache(maxsize=1)   # the last law only (module docstring)
def _tables(model: ReflectionModel) -> _Tables:
    """The phase search's grid, basis and derivative table for model.

    For alpha < 1 the grid starts half a step past the cusp at theta_d.  The
    basis and its value at theta_d are :func:`_phase_cost` at the unit
    coefficients.  Entry [i, k - 1] of the slopes table is the k-th theta-
    derivative of the basis at grid point i; its dot product with
    (q, Re c, Im c) is the cost's k-th derivative there.  beta''' divides by
    s, so it is not finite at a grid point on the cusp, and the first step
    from there bisects.
    """
    theta_d, a, k = (model.delta - 0.5 * math.pi) % TWO_PI, model.alpha, 1.0 - model.beta_min
    start = theta_d + math.pi / GRID_POINTS if a < 1.0 else 0.0
    grid = np.linspace(start, start + TWO_PI, GRID_POINTS, endpoint=False)
    unit_q, unit_c = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0j])
    basis = _phase_cost(unit_q, unit_c, grid[:, None], model).T   # stored by column
    at_theta_d = _phase_cost(unit_q, unit_c, theta_d, model)
    sin_u, cos_u = np.sin(grid - model.delta), np.cos(grid - model.delta)
    s, w = 0.5 * (sin_u + 1.0), a - 1.0 - a * sin_u
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 0.5 * a * k * s ** (a - 1.0)
        b, b1, b2 = amplitude_of_phase(grid, model), p * cos_u, p * w
        b3 = b1 * ((a - 1.0) * w / (2.0 * s) - a)
        # derivatives of 2 beta e^{j theta}, whose real and -imaginary parts are basis rows 2 and 3
        h = 2.0 * np.exp(1j * grid) * np.stack([b1 + 1j * b, b2 - b + 2j * b1,
                                                b3 - 3.0 * b1 + 1j * (3.0 * b2 - b)])
        quad = 2.0 * np.stack([b * b1, b1**2 + b * b2, 3.0 * b1 * b2 + b * b3])
    slopes = np.empty((GRID_POINTS, 3, 3))
    slopes[:, :, 0], slopes[:, :, 1], slopes[:, :, 2] = quad.T, h.real.T, -h.imag.T
    grid.flags.writeable = basis.flags.writeable = False
    slopes.flags.writeable = at_theta_d.flags.writeable = False
    return _Tables(grid, basis, slopes, theta_d, at_theta_d)


def _newton_refine(q, c, x, lo, hi, slopes, model: ReflectionModel) -> np.ndarray:
    """Safeguarded Halley iteration on f' from x inside [lo, hi], over 1-D arrays.

    slopes holds f', f'' and f''' at x by column (from :func:`_tables`).
    The first step is Halley's from them; later ones take f' and f'' from
    :func:`_phase_cost_slopes`.  A step that is not finite, has f'' <= 0 or
    leaves the bracket bisects it instead.  An entry stops once it moves at
    most _STEP_TOL, or, for alpha >= 1, once a later in-bracket step s has
    |f''' / (2 f'')| s^2 <= _STEP_TOL: that bounds the error a Newton step
    would leave, and the later steps, Halley's with the start's f''' (at
    most one grid step old), remove most of it.  Below alpha = 1, f''' grows
    without bound toward the cusp, the start's value bounds nothing, and the
    later steps are Newton's, stopped by their size only.  A point where f'
    is not finite (s rounds to 0 next to the alpha < 1 cusp) leaves the
    bracket as it is.  The live set shrinks, and out is written, only when
    an entry stops.
    """
    c_re, c_im, out, live = c.real, c.imag, np.empty_like(x), np.arange(x.size)
    (d1, d2, d3), reach = slopes.T, _STEP_TOL   # the first step's error is cubic: no bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(_NEWTON_CAP):
            if i:
                d1, d2, _ = _phase_cost_slopes(q, c_re, c_im, x, model)
                if model.alpha >= 1.0:   # the longest step whose Newton error is <= _STEP_TOL
                    reach = np.maximum(np.sqrt(2.0 * _STEP_TOL * d2 / np.abs(d3)), _STEP_TOL)
                else:
                    d3 = np.zeros_like(d3)
            lo, hi = np.where(d1 <= 0.0, x, lo), np.where(d1 > 0.0, x, hi)
            step = x - d1 / (d2 - 0.5 * d1 * d3 / d2)
            halley = (d2 > 0.0) & (step >= lo) & (step <= hi)
            x_new = np.where(halley, step, 0.5 * (lo + hi))
            moving = np.abs(x_new - x) > np.where(halley, reach, _STEP_TOL)
            if (n := np.count_nonzero(moving)) < moving.size:
                out[live[~moving]] = x_new[~moving]
                if not n:
                    return out
                live, q, c_re, c_im, lo, hi, x_new, d3 = (
                    v[moving] for v in (live, q, c_re, c_im, lo, hi, x_new, d3))
            x = x_new
    out[live] = x
    return out


def _beats_the_band_bound(q, abs_c, floor):
    """True where no phase _BAND or more grid steps from arg z costs less than floor."""
    return q * floor <= -(math.cos(_BAND * TWO_PI / GRID_POINTS) * abs_c) ** 2


def _beats_the_sector_bounds(q, c, theta, floor, model: ReflectionModel):
    """True where no phase outside theta's window costs below floor; q > 0 (module docstring)."""
    width, theta_d, z = TWO_PI / _SECTORS, (model.delta - 0.5 * math.pi) % TWO_PI, -np.conj(c) / q
    tip = 2.0 * math.asin(min(1.0, (model.beta_min / (1.0 - model.beta_min)) ** (0.5 / model.alpha)))
    cuts = (theta_d + np.array([0.0, math.pi, -tip, tip])) % TWO_PI   # theta_d, the peak, the tip
    edges = np.sort(np.append(np.linspace(0.0, TWO_PI, _SECTORS + 1), cuts))   # beta monotone on each
    amp, mid = amplitude_of_phase(edges, model), 0.5 * (edges[:-1] + edges[1:])
    proj = np.stack([z.real, z.imag], axis=1) @ np.stack([np.cos(edges), np.sin(edges)])
    p = np.maximum(proj[:, :-1], proj[:, 1:])   # |z| cos g, and |z| on arg z's own piece
    p[np.arange(q.size), np.searchsorted(edges[1:-1], np.angle(z) % TWO_PI, "right")] = abs(z)
    t = np.clip(p, np.minimum(amp[:-1], amp[1:]), np.maximum(amp[:-1], amp[1:]))
    centre = (theta // width + 0.5) * width   # the window: pieces within 1.5 sectors of it
    near = np.stack([np.cos(centre), np.sin(centre)], axis=1) @ np.stack([np.cos(mid), np.sin(mid)])
    side = np.where(np.cos(mid - theta_d) > 0.0, np.sin(mid - theta_d), 0.0)
    on_tip = np.cos(np.append(mid, theta) - theta_d) >= math.cos(tip if tip < 4 * width else math.pi)
    far = (near < math.cos(1.5 * width)) | (np.sin(theta - theta_d)[:, None] * side < 0.0) | (
        on_tip[:mid.size] != on_tip[mid.size:, None])
    return np.where(far, t * (t - 2.0 * p), np.inf).min(axis=1) >= floor / q


def _anchored_step(q, c, start, model: ReflectionModel) -> tuple[np.ndarray, ...]:
    """The local step (module docstring) from the start phases: thetas, values, certified.

    Newton steps on f' reach at most _ANCHOR_REACH and end once none exceeds
    _ANCHOR_TOL; the end's value is carried over the last step to third order.
    """
    c_re, c_im, x = c.real, c.imag, start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ANCHOR_STEPS):
            d1, d2, f = _phase_cost_slopes(q, c_re, c_im, x, model)
            step = d1 / np.maximum(d2, np.abs(d1) / _ANCHOR_REACH)
            x = x - step
            if (short := np.abs(step) <= _ANCHOR_TOL).all():
                break
        value, x = f - step * (d1 - 0.5 * d2 * step), x % TWO_PI
    abs_c = np.abs(c)   # the bounds divide by nothing but q > 0: no error state
    floor = value + 1e-12 * (q + 3.0 * abs_c)   # slack far above rounding
    sure = (ok := short & (q > 0.0)) & _beats_the_band_bound(q, abs_c, floor)
    if (left := ok & ~sure).any():
        sure[left] = _beats_the_sector_bounds(q[left], c[left], x[left], floor[left], model)
    return x, value, sure


def minimize_phase_objectives(
    quad_coeffs: np.ndarray,
    lin_coeffs: np.ndarray,
    model: ReflectionModel,
    anchor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize q * beta(theta)^2 + 2*Re{c * beta(theta) * e^{j theta}} per entry.

    Batched over the (q, c) pairs, theta in [0, 2*pi).  Under the ideal law
    the step is exact: pi - arg(c), or 0 when c = 0.  Otherwise the best grid
    point (for alpha < 1, of each side of the cusp theta_d) is refined within
    one grid step, by safeguarded Halley steps that read f''' (and, for the
    first, f' and f'') from the per-law derivative table, and kept only if
    strictly better; theta_d, scored from the basis there, is the last
    candidate.  Where beta_min = 0 and alpha >= 1, theta_d is a stationary
    zero of the cost, flat to order 2 alpha, toward which the steps creep:
    an entry whose grid best it matches is not refined and returns theta_d.
    Ties break toward the grid point.  Given anchor, the complex entries
    whose phases start the local step, or in a batch of at least _BAND_BATCH,
    certified entries skip the grid (module docstring).  Returns the thetas
    and their values; both pattern updates call it via
    :func:`minimize_pattern_entries`.
    """
    q = np.asarray(quad_coeffs, dtype=float).ravel()
    c = np.asarray(lin_coeffs, dtype=complex).ravel()
    if q.shape != c.shape:
        raise ValueError("quad_coeffs and lin_coeffs must have the same length")
    if model.is_ideal:   # q + 2|c| cos(theta + arg c) is least at pi - arg c
        return np.where(c == 0.0, 0.0, (math.pi - np.angle(c)) % TWO_PI), q - 2.0 * np.abs(c)
    if model.alpha < 1.0 or (anchor is None and q.size < _BAND_BATCH):
        return _search(q, c, model)
    start = (np.arctan2(c.imag, -c.real) if anchor is None   # arg z, z = -conj(c) / q
             else np.angle(np.asarray(anchor, dtype=complex).ravel()))
    theta, value, sure = _anchored_step(q, c, start, model)
    if not sure.all():
        theta[~sure], value[~sure] = _search(q[~sure], c[~sure], model)
    return theta, value


def _search(q: np.ndarray, c: np.ndarray, model: ReflectionModel) -> tuple[np.ndarray, np.ndarray]:
    """The global search of :func:`minimize_phase_objectives` under a non-ideal law."""
    tables, span = _tables(model), TWO_PI / GRID_POINTS
    lo, hi = (tables.theta_d, tables.theta_d + TWO_PI) if model.alpha < 1.0 else (-np.inf, np.inf)
    coeffs = np.stack([q, c.real, c.imag], axis=1)
    table, sides = coeffs @ tables.basis, 2 if model.alpha < 1.0 else 1   # alpha < 1: per cusp side
    width = GRID_POINTS // sides
    best = np.argmin(table.reshape(q.size, sides, width), axis=2) + np.arange(sides) * width
    low = table[np.arange(q.size)[:, None], best]
    value_d = coeffs @ tables.at_theta_d
    theta0, best = tables.grid[best.ravel()], best.ravel()
    qs, cs, coeffs = np.repeat(q, sides), np.repeat(c, sides), np.repeat(coeffs, sides, axis=0)
    lo, hi = np.maximum(theta0 - span, lo), np.minimum(theta0 + span, hi)
    if model.beta_min == 0.0 and model.alpha >= 1.0:   # then sides == 1
        # A flat entry gets the empty bracket [theta0, theta0], so it stops
        # before the first slope evaluation.
        flat = value_d <= low[:, 0]
        lo[flat] = hi[flat] = theta0[flat]
    slopes = np.vecdot(tables.slopes[best], coeffs[:, None, :])
    refined = _newton_refine(qs, cs, theta0, lo, hi, slopes, model) % TWO_PI
    # Grid points, then refined points, then theta_d: a later candidate wins
    # only if strictly better, so ties break early and a NaN never wins.
    cands = [(theta0 % TWO_PI, low.ravel()), (refined, _phase_cost(qs, cs, refined, model))]
    cands = [(t[j::sides], v[j::sides]) for t, v in cands for j in range(sides)]
    theta, value = cands[0]
    for t, v in cands[1:] + [(tables.theta_d, value_d)]:
        better = v < value
        theta, value = np.where(better, t, theta), np.where(better, v, value)
    return theta, value


def minimize_pattern_entries(
    q: float,
    c: np.ndarray,
    model: ReflectionModel,
    anchor: np.ndarray | None = None,
) -> np.ndarray:
    """Entrywise pattern step: the (M+1, B) minimizer of the separable cost.

    Entry (m, n) minimizes q |v|^2 + 2 Re{c[m, n] v} over the reflection law
    (the phase search with quad coeff q and lin coeff c[m, n]); the all-ones
    direct-link row is appended.  c is the (M, B) matrix of linear
    coefficients; the (M, B) anchor, if given, is the search's.
    """
    m, b = c.shape
    thetas, _ = minimize_phase_objectives(np.full(m * b, q), c, model, anchor)
    v = np.ones((m + 1, b), dtype=complex)
    v[:m] = reflection_coefficient(thetas, model).reshape(m, b)
    return v
