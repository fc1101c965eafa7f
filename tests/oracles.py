"""Independent references the tests check the package against.

None of this is part of ``mase``: the command line never runs it.  The
references keep their own hand-written coefficients where they can, so a
wrong entry in the package's coefficient record (``mase.operators.FLUX``,
``REACTION``, ``SLOPE_SQ``) shows up as a disagreement instead of being
shared by both sides:

- ``kernel_convolve``, a direct quadrature of the periodized Helmholtz
  kernel, for ``helmholtz_inverse`` (acceptance 1);
- ``local_form_residual``, the local form of the equation, for the nonlocal
  right-hand side (acceptance 2);
- ``linear_phase_speed``, the dispersion law of the linearized equation
  (acceptance 4);
- ``planar_field``, ``first_integral_uv`` and ``integrate_orbit``, the
  planar system of the traveling waves and its conserved quantity
  (acceptance 5);
- ``orbit_segment``, ``mirror_profile`` and
  ``concatenate_segments_unchecked``, waves composed from half-orbit
  segments: the reference a periodic or peaked profile is checked against,
  and the mismatched-level composites of acceptance 11;
- ``random_band_limited``, sample data whose products stay below the
  dealiasing cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from mase.errors import GridMismatchError, SingularLineError
from mase.grid import Field, Grid, State
from mase.operators import _nonlinear_spectra, _product_spectrum, _rhs_spectrum
from mase.traveling_wave import (
    SINGULAR_GUARD,
    Regularity,
    TWParams,
    TWProfile,
    _PiecewiseCubic,
    _segment_knots,
    force_poly,
    potential_poly,
    uxx_coeff_poly,
)

# ---------------------------------------------------------------------------
# band-limited sample data


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float = 0.1,
    max_mode: int | None = None,
) -> Field:
    """Random real field with spectrum confined to modes 1..max_mode.

    Coefficients decay exponentially toward max_mode (default n/8), keeping
    cubic and quartic products far below the dealiasing cutoff.
    """
    n = grid.n_points
    if max_mode is None:
        max_mode = n // 8
    if not 1 <= max_mode <= n // 2:
        raise ValueError(f"max_mode must be in [1, {n // 2}], got {max_mode}")
    mode = np.arange(n // 2 + 1)
    spec = np.zeros(n // 2 + 1, dtype=complex)
    live = (mode >= 1) & (mode <= max_mode)
    decay = np.exp(-3.0 * mode[live] / max_mode)
    spec[live] = (rng.standard_normal(live.sum()) + 1j * rng.standard_normal(live.sum())) * decay
    vals = np.fft.irfft(spec, n)
    sup = np.max(np.abs(vals))
    if sup > 0:
        vals *= amplitude / sup
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# the Helmholtz inverse by kernel quadrature


@lru_cache(maxsize=16)
def _kernel_matrix(n_points: int, length: float) -> np.ndarray:
    """Quadrature matrix of the periodized kernel (1/2) sum_m exp(-|d + mL|).

    The image sum is geometric; for |d| <= L it equals
    cosh(|d| - L/2) / (2 sinh(L/2)), evaluated here in the overflow-free form
    (exp(-|d|) + exp(|d| - L)) / (2 (1 - exp(-L))).
    """
    h = length / n_points
    x = np.arange(n_points) * h
    d = np.abs(x[:, None] - x[None, :])
    kern = h * (np.exp(-d) + np.exp(d - length)) / (-2.0 * np.expm1(-length))
    kern.setflags(write=False)
    return kern


def _second_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central difference for f'' on the periodic grid."""
    f1 = np.roll(values, -1)
    f_1 = np.roll(values, 1)
    f2 = np.roll(values, -2)
    f_2 = np.roll(values, 2)
    return (-f2 + 16.0 * f1 - 30.0 * values + 16.0 * f_1 - f_2) / (12.0 * h * h)


def kernel_convolve(f: Field) -> Field:
    """Direct quadrature of the periodized-kernel convolution.

    Trapezoid sum of (1/2) sum_m int exp(-|x - y + mL|) f(y) dy over the
    period, plus Euler-Maclaurin endpoint corrections for the kernel's kink
    at y = x (the kink sits on a quadrature node, so plain trapezoid is only
    second-order accurate; the h^2 and h^4 jump terms restore ~h^6).  Serves
    as the FFT-free oracle for helmholtz_inverse.
    """
    h = f.grid.spacing
    quad = _kernel_matrix(f.grid.n_points, f.grid.length) @ f.values
    fpp = _second_difference(f.values, h)
    corr = -(h**2 / 12.0) * f.values + (h**4 / 720.0) * (f.values + 3.0 * fpp)
    return f.with_values(quad + corr)


# ---------------------------------------------------------------------------
# the right-hand side and the local form


def _rhs_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Evolution right-hand side at the grid points."""
    return np.fft.irfft(_rhs_spectrum(np.fft.rfft(values), grid), grid.n_points)


def evolution_rhs(s: State) -> Field:
    """Value of u_t: d/dx (u + 7u^2) - d/dx (1-d^2/dx^2)^{-1} R(u)."""
    return s.u.with_values(_rhs_values(s.u.values, s.u.grid))


def require_same_grid(a: Field, b: Field) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(
            f"fields live on different grids: {a.grid} vs {b.grid}"
        )


def local_form_residual(u: Field, ut: Field) -> Field:
    """Pointwise left side of the local form of the equation.

    u_t + u_x + 6uu_x - 6u^2 u_x + 12u^3 u_x + u_xxx - u_xxt
    + 14u u_xxx + 28 u_x u_xx, with hand-derived coefficients, assembled from
    the same dealiased products as the nonlocal right-hand side.  Consistency
    oracle, not a solver.
    """
    require_same_grid(u, ut)
    grid = u.grid
    n = grid.n_points
    parts = _nonlinear_spectra(u.values, grid)
    t = parts["tables"]
    keep = t["keep"]
    ub, ubx = parts["ub"], parts["ubx"]
    ubxx = np.fft.irfft(t["d2"] * parts["ubh"], n)
    ubxxx = np.fft.irfft(t["d3"] * parts["ubh"], n)
    u2 = parts["u2"]
    u3 = np.fft.irfft(parts["u3h"], n)
    uth = np.fft.rfft(ut.values)
    res = (
        uth
        + t["d1"] * parts["uh"]
        + t["d3"] * parts["uh"]
        - t["d2"] * uth
        + 6.0 * _product_spectrum(ub, ubx, keep)
        - 6.0 * _product_spectrum(u2, ubx, keep)
        + 12.0 * _product_spectrum(u3, ubx, keep)
        + 14.0 * _product_spectrum(ub, ubxxx, keep)
        + 28.0 * _product_spectrum(ubx, ubxx, keep)
    )
    return u.with_values(np.fft.irfft(res, n))


def linear_phase_speed(k: float) -> float:
    """Phase speed (1 - k^2)/(1 + k^2) of the linearized equation."""
    k = float(k)
    return (1.0 - k * k) / (1.0 + k * k)


# ---------------------------------------------------------------------------
# the planar system of the traveling waves


@dataclass(frozen=True)
class PhasePoint:
    elevation: float
    slope: float

    def __post_init__(self):
        if not (np.isfinite(self.elevation) and np.isfinite(self.slope)):
            raise ValueError("phase point must be finite")


def planar_field(p: PhasePoint, params: TWParams) -> PhasePoint:
    """Tangent vector (U', V') = (V, -(7V^2 + F(U)) / D(U)) of the planar system."""
    d = uxx_coeff_poly(params)(p.elevation)
    if abs(d) <= SINGULAR_GUARD:
        raise SingularLineError(
            f"elevation {p.elevation!r} is within {SINGULAR_GUARD} of the singular line"
        )
    f = force_poly(params)(p.elevation)
    return PhasePoint(p.slope, -(7.0 * p.slope**2 + f) / d)


def first_integral_uv(u, v, params: TWParams):
    """H(U, V) = D(U) V^2 + 2 G(U), vectorized over arrays."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return uxx_coeff_poly(params)(u) * (v * v) + 2.0 * potential_poly(params)(u)


def first_integral(p: PhasePoint, params: TWParams) -> float:
    return float(first_integral_uv(p.elevation, p.slope, params))


def integrate_orbit(
    start: PhasePoint,
    params: TWParams,
    step_size: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of the planar system; conservation oracle."""
    d_poly = uxx_coeff_poly(params)
    f_poly = force_poly(params)

    def rhs(y: np.ndarray) -> np.ndarray:
        d = d_poly(y[0])
        if abs(d) <= SINGULAR_GUARD:
            raise SingularLineError("orbit reached the singular line")
        return np.array([y[1], -(7.0 * y[1] ** 2 + f_poly(y[0])) / d])

    y = np.array([start.elevation, start.slope], dtype=np.float64)
    us = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    us[0], vs[0] = y
    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step_size * k1)
        k3 = rhs(y + 0.5 * step_size * k2)
        k4 = rhs(y + step_size * k3)
        y = y + (step_size / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        us[i + 1], vs[i + 1] = y
    return us, vs


# ---------------------------------------------------------------------------
# waves composed from segments


def orbit_segment(
    params: TWParams,
    u_from: float,
    u_to: float,
    n_samples: int = 2049,
) -> TWProfile:
    """Monotone wave segment between two elevations on one level set.

    Endpoints may be simple turning points or regular points with positive
    squared slope (for instance the singular-line contact of a peaked wave).
    xi runs from 0 at ``u_from``; the package's own quadrature table
    (``_segment_knots``) supplies the knots.
    """
    xi_k, u_k, v_k, slopes = _segment_knots(params, u_from, u_to)
    spline = _PiecewiseCubic(xi_k, u_k, v_k)
    xi = np.linspace(xi_k[0], xi_k[-1], n_samples)
    values = spline(xi)
    return TWProfile(
        params=params,
        xi=xi,
        values=values,
        regularity=Regularity.COMPOSITE,
        period=None,
        slopes=slopes(values),
        evaluator=spline,
    )


def mirror_profile(p: TWProfile) -> TWProfile:
    """Reflection of a segment in xi (slopes change sign)."""
    length = p.xi[-1] - p.xi[0]
    xi = p.xi[0] + (length - (p.xi[::-1] - p.xi[0]))
    base_eval = p.evaluator
    lo, hi = p.xi[0], p.xi[-1]

    def evaluator(x):
        return base_eval(hi - (np.asarray(x, dtype=np.float64) - lo))

    return TWProfile(
        params=p.params,
        xi=xi,
        values=p.values[::-1].copy(),
        regularity=p.regularity,
        period=p.period,
        slopes=-p.slopes[::-1].copy(),
        evaluator=evaluator,
    )


def concatenate_segments_unchecked(segments: Sequence[TWProfile]) -> TWProfile:
    """Raw concatenation of segments, continuity assumed but not enforced.

    Builds deliberately inconsistent composites (for instance segments from
    different first-integral levels) as well as the same-level reference for
    the package's periodic waves.  Every segment needs the slopes and
    evaluator that orbit_segment and mirror_profile attach.
    """
    if not segments:
        raise ValueError("need at least one segment")
    if any(seg.slopes is None or seg.evaluator is None for seg in segments):
        raise ValueError("every segment needs slopes and an evaluator")
    offsets = [0.0]
    for seg in segments:
        offsets.append(offsets[-1] + float(seg.xi[-1] - seg.xi[0]))
    xi_parts = []
    val_parts = []
    slope_parts = []
    for seg, off in zip(segments, offsets):
        rel = seg.xi - seg.xi[0] + off
        vals, sl = seg.values, seg.slopes
        if xi_parts:
            rel, vals, sl = rel[1:], vals[1:], sl[1:]
        xi_parts.append(rel)
        val_parts.append(vals)
        slope_parts.append(sl)
    xi = np.concatenate(xi_parts)
    values = np.concatenate(val_parts)
    slopes = np.concatenate(slope_parts)

    bounds = np.array(offsets)
    evals = [seg.evaluator for seg in segments]
    starts = [seg.xi[0] for seg in segments]

    def evaluator(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        idx = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0, len(segments) - 1)
        for i, ev in enumerate(evals):
            m = idx == i
            if np.any(m):
                out[m] = ev(x[m] - bounds[i] + starts[i])
        return out

    return TWProfile(
        params=segments[0].params,
        xi=xi,
        values=values,
        regularity=Regularity.COMPOSITE,
        period=None,
        slopes=slopes,
        evaluator=evaluator,
    )
