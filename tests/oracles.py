"""Independent references the tests check the package against.

None of this is part of ``mase``: the command line never runs it.  The
references keep their own hand-written coefficients where they can, so a
wrong entry in the package's coefficient record (``mase.operators.FLUX``,
``REACTION``, ``SLOPE_SQ``) shows up as a disagreement instead of being
shared by both sides:

- ``kernel_convolve``, a direct quadrature of the periodized Helmholtz
  kernel, for ``helmholtz_inverse`` (acceptance 1);
- ``rhs_spectrum`` (with ``_rhs_values`` and ``evolution_rhs``), the
  right-hand side composed from the two parts the stepper takes apart:
  ``lin * uh`` and the kept band of ``_nonlinear_spectrum``;
- ``reaction_term`` (on ``_nonlinear_spectra``, ``_product_spectrum``,
  ``_truncate`` and ``_reaction_spectrum``), R(u) one dealiased product per
  power, for the fused right-hand side;
- ``local_form_residual``, the local form of the equation on the same
  products, for the nonlocal right-hand side (acceptance 2);
- ``linear_phase_speed``, the dispersion law of the linearized equation
  (acceptance 4);
- ``planar_field``, ``first_integral_uv`` and ``integrate_orbit``, the
  planar system of the traveling waves and its conserved quantity
  (acceptance 5);
- ``orbit_segment``, ``mirror_profile`` and
  ``concatenate_segments_unchecked``, waves composed from half-orbit
  segments: the reference a periodic or peaked profile is checked against,
  and the mismatched-level composites of acceptance 11;
- ``reflection_bracket_check`` (with ``_oversample``, ``periodic_derivative``
  and ``reflected``), the reflection bracket identity (acceptance 10);
- ``random_band_limited``, ``zero_field`` and ``constant_field``, sample data;
- ``GridMismatchError``, ``SingularLineError`` and ``COMPOSITE``, the errors
  and the regularity that only these references use;
- ``detect_axis_loop``, ``track_axis_loop``, ``travel_error_loop``,
  ``unsteady_residual_loop`` and ``steady_residual_loop`` (with
  ``reflect_loop`` and ``shift_field_loop``), the analyses one snapshot or
  one bump at a time: the bitwise reference for the package's stacked
  analyses;
- ``spectrum_slope``, max|u_x| from a spectrum by one irfft, and
  ``accepted_spectra``, the spectra an evolve run stepped through: with
  them, the bitwise reference for the slopes evolve checks and keeps;
- ``max_slope_loop``, max|u_x| of one field from its values, within 1e-12
  of that slope, and ``with_slopes``, which gives a hand-built trajectory
  its slopes by it, so that the run writer takes it;
- ``breaking_first_hit``, breaking decided on the snapshot series: the
  reference for ``breaking.json``, which restates the run's termination;
- ``sha256_file`` and ``verify_manifest``, digests of the files on disk:
  a check of every manifest entry apart from ``mase.storage.read_trajectory``;
- ``rk4_step``, one ``mase.evolution._rk4`` step from a spectrum alone, for
  the fixed-step order tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from mase import evolution
from mase.errors import ConstantFieldError, MaseError, SupportError
from mase.grid import Field, Grid, State
from mase.evolution import SolverConfig, Trajectory, _rk4
from mase.operators import (REACTION, SLOPE_SQ, _nonlinear_spectrum, _rhs_tables, _spectral_tables,
                            helmholtz_inverse)
from mase.traveling_wave import (
    SINGULAR_GUARD,
    TWParams,
    TWProfile,
    _PiecewiseCubic,
    _segment_knots,
    force_poly,
    potential_poly,
    uxx_coeff_poly,
)
from mase.weakform import TestFunction


class GridMismatchError(MaseError, ValueError):
    """Two fields that must share a grid do not."""


class SingularLineError(MaseError, ValueError):
    """Phase-plane evaluation too close to the singular line D(U) = 0."""


COMPOSITE = "composite"  # regularity of waves composed from segments; not a package Regularity

# ---------------------------------------------------------------------------
# sample data


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.n_points))


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.n_points, float(value)))


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
# the right-hand side, the dealiased reaction term and the local form


def _truncate(spec: np.ndarray, keep: np.ndarray) -> np.ndarray:
    out = spec.copy()
    out[~keep] = 0.0
    return out


def _product_spectrum(a: np.ndarray, b: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """rfft of the pointwise product, truncated to the kept band."""
    return _truncate(np.fft.rfft(a * b), keep)


def _nonlinear_spectra(values: np.ndarray, grid: Grid) -> dict:
    """Dealiased powers entering R(u), one truncated product each.

    Returns the full spectrum ``uh`` plus band-truncated spectra of u^2, u^3,
    u^4 and u_x^2, and the physical-space truncated factors used to build
    them.  reaction_term and local_form_residual draw from it; the package's
    right-hand side (_nonlinear_spectrum) fuses the same products into fewer
    transforms, so these check it from separate code.
    """
    t = _spectral_tables(grid.n_points, grid.length)
    n = grid.n_points
    uh = np.fft.rfft(values)
    ubh = _truncate(uh, t["keep"])
    ub = np.fft.irfft(ubh, n)
    ubx = np.fft.irfft(t["d1"] * ubh, n)
    u2h = _product_spectrum(ub, ub, t["keep"])
    u2 = np.fft.irfft(u2h, n)
    u3h = _product_spectrum(u2, ub, t["keep"])
    u4h = _product_spectrum(u2, u2, t["keep"])
    ux2h = _product_spectrum(ubx, ubx, t["keep"])
    return {
        "tables": t,
        "uh": uh,
        "ubh": ubh,
        "ub": ub,
        "ubx": ubx,
        "u2h": u2h,
        "u2": u2,
        "u3h": u3h,
        "u4h": u4h,
        "ux2h": ux2h,
    }


def _reaction_spectrum(parts: dict) -> np.ndarray:
    _, r1, r2, r3, r4 = REACTION
    return (
        r1 * parts["uh"]
        + r2 * parts["u2h"]
        + r3 * parts["u3h"]
        + r4 * parts["u4h"]
        + SLOPE_SQ * parts["ux2h"]
    )


def reaction_term(u: Field) -> Field:
    """R(u) = 2u + 10u^2 - 2u^3 + 3u^4 - 7u_x^2 with dealiased products."""
    parts = _nonlinear_spectra(u.values, u.grid)
    return u.with_values(np.fft.irfft(_reaction_spectrum(parts), u.grid.n_points))


def rhs_spectrum(uh: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectrum of the evolution right-hand side from the spectrum of u.

    ``lin * uh`` plus the kept band of _nonlinear_spectrum, the two parts
    mase.evolution._rk4 steps, on the last axis: each row of a
    (B, n//2 + 1) stack equals its own evaluation bitwise.
    """
    t = _rhs_tables(grid.n_points, grid.length)
    band = len(t["quad"])
    out = t["lin"] * uh
    out[..., :band] += _nonlinear_spectrum(uh[..., :band], grid)
    return out


def _rhs_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Evolution right-hand side at the grid points."""
    return np.fft.irfft(rhs_spectrum(np.fft.rfft(values), grid), grid.n_points)


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
    d2 = (1j * t["k"]) ** 2
    d3 = d2 * t["d1"]  # d1 carries the Nyquist zero of odd orders
    ubxx = np.fft.irfft(d2 * parts["ubh"], n)
    ubxxx = np.fft.irfft(d3 * parts["ubh"], n)
    u2 = parts["u2"]
    u3 = np.fft.irfft(parts["u3h"], n)
    uth = np.fft.rfft(ut.values)
    res = (
        uth
        + t["d1"] * parts["uh"]
        + d3 * parts["uh"]
        - d2 * uth
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
        regularity=COMPOSITE,
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
        regularity=COMPOSITE,
        period=None,
        slopes=slopes,
        evaluator=evaluator,
    )


# ---------------------------------------------------------------------------
# per-snapshot analyses
#
# The package analyses a trajectory as stacks of snapshot rows.  These are
# the loops it replaced, one transform chain per snapshot or bump, kept as
# the bitwise reference for the stacked code.


def shift_field_loop(u: Field, s: float) -> Field:
    """Samples of x -> u(x - s), band-limited interpolation for off-grid s."""
    n = u.grid.n_points
    steps = s / u.grid.spacing
    if abs(steps - round(steps)) < 1e-9:
        return u.with_values(np.roll(u.values, int(round(steps)) % n))
    k = _spectral_tables(n, u.grid.length)["k"]
    wh = np.fft.rfft(u.values) * np.exp(-1j * k * s)
    if n % 2 == 0:
        wh[-1] = 0.0
    return u.with_values(np.fft.irfft(wh, n))


def reflect_loop(u: Field, axis: float) -> Field:
    """Samples of x -> u(2*axis - x); exact permutation for grid-aligned axes."""
    n = u.grid.n_points
    shift = 2.0 * axis
    steps = shift / u.grid.spacing
    if abs(steps - round(steps)) < 1e-9:
        m = int(round(steps)) % n
        return u.with_values(u.values[(m - np.arange(n)) % n])
    k = _spectral_tables(n, u.grid.length)["k"]
    wh = np.conj(np.fft.rfft(u.values)) * np.exp(-1j * k * shift)
    if n % 2 == 0:
        wh[-1] = 0.0
    return u.with_values(np.fft.irfft(wh, n))


def _corr_value(A: np.ndarray, k: np.ndarray, n: int, delta: float, order: int) -> float:
    terms = A * (1j * k) ** order * np.exp(1j * k * delta)
    total = np.real(terms[0]) + 2.0 * np.real(np.sum(terms[1:-1]))
    if n % 2 == 0:
        total += np.real(terms[-1])
    else:
        total += 2.0 * np.real(terms[-1])
    return total / n


def detect_axis_loop(u: Field) -> tuple[float, float, bool]:
    """(axis, asymmetry, ambiguous) of one field, clustering its peaks in Python."""
    n, L, h = u.grid.n_points, u.grid.length, u.grid.spacing
    dev = u.values - np.mean(u.values)
    nrm = np.sqrt(np.sum(dev**2))
    if nrm * np.sqrt(h) <= 1e-12:
        raise ConstantFieldError("symmetry axis of a constant field is undefined")
    flip = dev[(-np.arange(n)) % n]
    A = np.fft.rfft(dev) * np.conj(np.fft.rfft(flip))
    k = _spectral_tables(n, L)["k"]
    C = np.fft.irfft(A, n)

    c_max, c_min = float(np.max(C)), float(np.min(C))
    span = max(c_max - c_min, 1e-300)
    clusters: list[list[int]] = []
    for i in np.nonzero(C >= c_max - 1e-9 * span)[0]:
        if clusters and (i - clusters[-1][-1]) % n <= 1:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and (clusters[0][0] - clusters[-1][-1]) % n <= 1:
        clusters[0] = clusters.pop() + clusters[0]

    def refine(m: int) -> float:
        cm1, c0, cp1 = C[(m - 1) % n], C[m], C[(m + 1) % n]
        denom = cm1 - 2.0 * c0 + cp1
        off = 0.5 * (cm1 - cp1) / denom if denom != 0 else 0.0
        delta = (m + off) * h
        for _ in range(3):
            d1 = _corr_value(A, k, n, delta, 1)
            d2 = _corr_value(A, k, n, delta, 2)
            if d2 >= 0 or not np.isfinite(d2):
                break
            step = d1 / d2
            if abs(step) > h:
                step = np.sign(step) * h
            delta -= step
        return float(np.mod(delta, L))

    deltas = sorted(refine(cl[np.argmax(C[cl])]) for cl in clusters)
    half_axes = sorted({float(np.mod(d / 2.0, L / 2.0)) for d in deltas})
    ref = half_axes[0]
    multi_peak = any(min(abs(a - ref), L / 2 - abs(a - ref)) > 1e-6 * L for a in half_axes[1:])
    reps = [ref, ref + L / 2.0]
    scores = [abs(dev[int(round(r / h)) % n]) for r in reps]
    tie = abs(scores[0] - scores[1]) <= 1e-9 * max(np.max(np.abs(dev)), 1e-300)
    axis = min(reps) if tie else reps[int(np.argmax(scores))]
    if multi_peak:
        axis = ref
    refl = reflect_loop(u, axis)
    asymmetry = float(np.sqrt(np.sum((u.values - refl.values) ** 2)) / nrm)
    return float(np.mod(axis, L)), asymmetry, bool(multi_peak or tie)


def track_axis_loop(snapshots: Sequence[State]) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped-then-wrapped axes and asymmetries, one detect_axis_loop per snapshot."""
    L = snapshots[0].u.grid.length
    fits = [detect_axis_loop(s.u) for s in snapshots]
    axes = np.array([f[0] for f in fits])
    for i in range(1, len(axes)):
        axes[i] -= L * np.round((axes[i] - axes[i - 1]) / L)
    return np.mod(axes, L), np.array([f[1] for f in fits])


def travel_error_loop(snapshots: Sequence[State], speed: float) -> float:
    """Worst relative gap between each snapshot and the shifted first one."""
    u0, t0 = snapshots[0].u, snapshots[0].time
    nrm0 = np.sqrt(np.sum(u0.values**2))
    worst = 0.0
    for s in snapshots[1:]:
        moved = shift_field_loop(u0, speed * (s.time - t0))
        worst = max(worst, float(np.sqrt(np.sum((s.u.values - moved.values) ** 2)) / nrm0))
    return worst


def spectrum_slope(uh: np.ndarray, grid: Grid) -> float:
    """max|u_x| of the state whose spectrum is uh = rfft(u), by one irfft."""
    k = _spectral_tables(grid.n_points, grid.length)["k"]
    d1 = 1j * k
    if grid.n_points % 2 == 0:
        d1[-1] = 0.0
    return float(np.max(np.abs(np.fft.irfft(d1 * uh, grid.n_points))))


def max_slope_loop(u: Field) -> float:
    """max|u_x| of one field by its own transform pair."""
    return spectrum_slope(np.fft.rfft(u.values), u.grid)


def with_slopes(traj: Trajectory) -> Trajectory:
    """``traj`` with the max_slopes of its snapshots by max_slope_loop."""
    return replace(traj, max_slopes=tuple(max_slope_loop(s.u) for s in traj.snapshots))


def accepted_spectra(initial: State, config: SolverConfig) -> tuple[Trajectory, list[np.ndarray]]:
    """``evolve([initial], config)[0]`` and the spectra it stepped through: the
    initial state's, then the new spectrum of each accepted ``_rk4`` step."""
    spectra = [np.fft.rfft(initial.u.values)]

    def recording(uh, nl, grid, dt):
        out = _rk4(uh, nl, grid, dt)
        if np.all(out[2] <= evolution.TOL):  # the one row accepts its step
            spectra.append(out[0][0])
        return out

    evolution._rk4 = recording
    try:
        traj = evolution.evolve([initial], config)[0]
    finally:
        evolution._rk4 = _rk4
    return traj, spectra


def unsteady_residual_loop(snapshots: Sequence[State], phis, rho) -> list[float]:
    """Space-time weak residual with one derivative and Helmholtz solve per snapshot."""
    grid = snapshots[0].u.grid
    times = np.array([s.time for s in snapshots])
    t_lo, t_hi = rho.support
    x = grid.points
    k = _spectral_tables(grid.n_points, grid.length)["k"]
    d1 = 1j * k
    if grid.n_points % 2 == 0:
        d1[-1] = 0.0
    helm = 1.0 / (1.0 + k**2)
    # the temporal factors as the package forms them, one array evaluation each
    rho_v, rho_t = rho.value(times), rho.derivative(times, 1)
    slices = np.zeros((len(phis), len(times)))
    for i, s in enumerate(snapshots):
        if times[i] < t_lo - 2 * rho.width or times[i] > t_hi + 2 * rho.width:
            continue
        u = s.u.values
        ux = np.fft.irfft(d1 * np.fft.rfft(u), grid.n_points)
        r = 2.0 * u + 10.0 * u**2 - 2.0 * u**3 + 3.0 * u**4 - 7.0 * ux**2
        p = np.fft.irfft(helm * np.fft.rfft(r), grid.n_points)
        flux = 1.0 * u + 7.0 * u**2
        for j, phi in enumerate(phis):
            phi_v, phi_x = phi.value(x), phi.derivative(x, 1)
            integrand = (u * phi_v * rho_t[i] - flux * phi_x * rho_v[i]
                         + p * phi_x * rho_v[i])
            slices[j, i] = grid.spacing * np.sum(integrand)
    return [float(np.trapezoid(row, times)) / (phi.mass() * rho.mass())
            for phi, row in zip(phis, slices)]


def steady_residual_loop(profile: TWProfile, psi) -> float:
    """Steady weak residual of one bump, forming R(U) and P(R(U)) for it alone."""
    u = profile.values
    n = len(u)
    h = float(np.mean(np.diff(profile.xi))) * n / n  # the spacing of the profile's grid
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    r = 2.0 * u + 10.0 * u**2 - 2.0 * u**3 + 3.0 * u**4 - 7.0 * profile.slopes**2
    p = np.fft.irfft((1.0 / (1.0 + k**2)) * np.fft.rfft(r), n)
    c = profile.params.speed
    integrand = ((c + 1.0) * u + 7.0 * u**2 - p) * psi.derivative(profile.xi, 1)
    return float(h * np.sum(integrand) / psi.mass())


# ---------------------------------------------------------------------------
# the reflection bracket identity

_BRACKET_OVERSAMPLE = 8  # fine-grid factor of the reflection bracket quadrature


def periodic_derivative(phi: TestFunction, x, order: int, period: float) -> np.ndarray:
    """Derivative of the bump ``phi`` at x, the coordinate wrapped to the period."""
    y = (np.mod(np.asarray(x, dtype=np.float64) - phi.center + 0.5 * period, period)
         - 0.5 * period) / phi.width
    out = np.where(np.abs(y) < 1.0, phi._profile(np.clip(y, -1.0, 1.0), order), 0.0)
    return out / phi.width**order


def reflected(phi: TestFunction, axis: float, period: float) -> TestFunction:
    """The bump reflected about ``axis``, its center taken modulo the period."""
    return TestFunction(float(np.mod(2.0 * axis - phi.center, period)), phi.width)


def _oversample(values: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited refinement by Fourier zero padding."""
    n = len(values)
    spec = np.fft.rfft(values)
    fine = np.zeros(factor * n // 2 + 1, dtype=complex)
    fine[: len(spec)] = spec
    if n % 2 == 0:
        fine[n // 2] *= 0.5  # split the Nyquist mode symmetrically
    return np.fft.irfft(fine, factor * n) * factor


def reflection_bracket_check(u: Field, lam: float, phi: TestFunction) -> tuple[float, float]:
    """Both sides of the reflection bracket identity, paired against phi_x.

    Returns (lhs, rhs) with

        lhs = <P(R(u_lam)), phi_x>,   rhs = <P(R(u)), (phi_lam)_x>,

    where u_lam is the reflected field and phi_lam the reflected bump; the
    identity lhs = -rhs holds because reflection commutes with R and the
    even convolution kernel while flipping the test-function derivative.
    """
    grid = u.grid
    if 2.0 * phi.width >= grid.length:
        raise SupportError("test function is too wide for the domain")
    p_lam = helmholtz_inverse(reaction_term(reflect_loop(u, lam))).values
    p_u = helmholtz_inverse(reaction_term(u)).values

    n_fine = _BRACKET_OVERSAMPLE * grid.n_points
    h_fine = grid.length / n_fine
    x_fine = np.arange(n_fine) * h_fine
    phi_x = periodic_derivative(phi, x_fine, 1, grid.length)
    # the bump is even about its center, so the reflected bump's own
    # derivative equals d/dx [phi(2 lam - x)]
    phi_lam_x = periodic_derivative(reflected(phi, lam, grid.length), x_fine, 1, grid.length)

    lhs = float(h_fine * np.sum(_oversample(p_lam, _BRACKET_OVERSAMPLE) * phi_x))
    rhs = float(h_fine * np.sum(_oversample(p_u, _BRACKET_OVERSAMPLE) * phi_lam_x))
    return lhs, rhs


# ---------------------------------------------------------------------------
# run directories


def breaking_first_hit(snapshots: Sequence[State], threshold: float) -> dict:
    """breaking.json from the first snapshot whose max|u_x| reaches ``threshold``
    while its sup|u| stays within twice the initial one."""
    bound = 2.0 * max(snapshots[0].u.sup_norm(), 1e-300)
    for s in snapshots:
        if max_slope_loop(s.u) >= threshold and s.u.sup_norm() <= bound:
            return {"detected": True, "t_detect": float(s.time)}
    return {"detected": False, "t_detect": None}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_manifest(run_dir: Path) -> bool:
    """Whether every file the manifest lists exists with its listed digest."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        p = run_dir / entry["path"]
        if not p.exists() or sha256_file(p) != entry["sha256"]:
            return False
    return True


def rk4_step(uh: np.ndarray, grid: Grid, dt):
    """``_rk4(uh, N(u), grid, dt)``: (new spectrum, N of it, error estimate).

    N(u) is formed afresh from the kept band of ``uh``, bitwise what the step
    that made ``uh`` passes on, so a loop of these is a fixed-dt run.
    """
    band = len(_rhs_tables(grid.n_points, grid.length)["quad"])
    return _rk4(uh, _nonlinear_spectrum(uh[..., :band], grid), grid, dt)
