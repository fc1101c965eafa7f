"""Spatial operators of the nonlocal evolution form.

The equation evolves as

    u_t = d/dx (u + 7 u^2) - d/dx (1 - d^2/dx^2)^{-1} R(u),
    R(u) = 2u + 10u^2 - 2u^3 + 3u^4 - 7 u_x^2,

on a periodic grid.  All derivatives are Fourier collocation derivatives and
the Helmholtz inverse is the multiplier 1/(1+k^2).  Nonlinear products are
dealiased with the 2/3 rule, realized as iterated quadratic products of
band-truncated factors so that every product is alias-free in the kept band
and commutes exactly with band-limited translations and reflections.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DerivativeOrderError, NonFiniteFieldError
from .grid import Field, Grid, State, require_same_grid

# Coefficients of the nonlocal form, in ascending powers of u:
#   u_t = d/dx FLUX(u) - d/dx (1 - d^2/dx^2)^{-1} R(u),
#   FLUX(u) = sum_j FLUX[j] u^j,  R(u) = sum_j REACTION[j] u^j + SLOPE_SQ u_x^2.
# Constant terms drop out of every x-derivative; they are kept so the tuples
# read as polynomials.  local_form_residual keeps its own hand-derived
# coefficients on purpose: it is the independent oracle for this record.
FLUX = (0.0, 1.0, 7.0)
REACTION = (0.0, 2.0, 10.0, -2.0, 3.0)
SLOPE_SQ = -7.0

# ---------------------------------------------------------------------------
# spectral helpers


@lru_cache(maxsize=64)
def _spectral_tables(n_points: int, length: float):
    """Wavenumbers, dealias mask and derivative multipliers for a grid size.

    Cached per (n, L); entries are read-only, so sharing across threads is
    safe and invisible to callers.
    """
    k = 2.0 * np.pi * np.fft.rfftfreq(n_points, d=length / n_points)
    mode = np.arange(n_points // 2 + 1)
    keep = mode < max(1, n_points // 3)
    ik = 1j * k
    # odd-order derivatives of real data have no consistent Nyquist mode
    nyq = np.ones_like(k)
    if n_points % 2 == 0:
        nyq[-1] = 0.0
    tables = {
        "k": k,
        "keep": keep,
        "d1": ik * nyq,
        "d2": (ik) ** 2,
        "d3": (ik) ** 3 * nyq,
        "helmholtz": 1.0 / (1.0 + k**2),
    }
    for arr in tables.values():
        arr.setflags(write=False)
    return tables


@lru_cache(maxsize=16)
def _rhs_tables(n_points: int, length: float):
    """Multipliers of the spectral right-hand side for a grid size.

    Kept apart from _spectral_tables, which the weak forms fill with many
    grid lengths, so that only evolved grids pay for these.  Read-only.
    """
    t = _spectral_tables(n_points, length)
    d1, helm = t["d1"], t["helmholtz"]
    band = int(t["keep"].sum())
    tables = {
        # rows 1 and d1: one irfft of (this * uh) gives u and u_x together
        "value_slope": np.stack((np.ones_like(d1), d1)),
        # the right-hand side as multipliers of uh, of the kept band of the
        # u^2 spectrum and of the rest of the nonlinearity (see _rhs_spectrum)
        "lin": d1 * (FLUX[1] - REACTION[1] * helm),
        "quad": (d1 * (FLUX[2] - REACTION[2] * helm))[:band],
        "rest": (-d1 * helm)[:band],
    }
    for arr in tables.values():
        arr.setflags(write=False)
    return tables


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
    them.  reaction_term and local_form_residual draw from it; the evolution
    right-hand side (_rhs_spectrum) fuses the same products into fewer
    transforms, so the local-form oracle checks it from separate code.
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


def _require_finite(f: Field) -> None:
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteFieldError("operation requires finite field values")


# ---------------------------------------------------------------------------
# public operations


def spectral_derivative(u: Field, order: int) -> Field:
    """Fourier-collocation derivative of order 1, 2 or 3."""
    if order not in (1, 2, 3):
        raise DerivativeOrderError(f"derivative order must be 1, 2 or 3, got {order!r}")
    t = _spectral_tables(u.grid.n_points, u.grid.length)
    mult = t[f"d{order}"]
    return u.with_values(np.fft.irfft(mult * np.fft.rfft(u.values), u.grid.n_points))


def reaction_term(u: Field) -> Field:
    """R(u) = 2u + 10u^2 - 2u^3 + 3u^4 - 7u_x^2 with dealiased products."""
    _require_finite(u)
    parts = _nonlinear_spectra(u.values, u.grid)
    return u.with_values(np.fft.irfft(_reaction_spectrum(parts), u.grid.n_points))


def helmholtz_inverse(f: Field) -> Field:
    """Solve (1 - d^2/dx^2) P = f on the periodic grid (multiplier 1/(1+k^2))."""
    _require_finite(f)
    t = _spectral_tables(f.grid.n_points, f.grid.length)
    return f.with_values(
        np.fft.irfft(t["helmholtz"] * np.fft.rfft(f.values), f.grid.n_points)
    )


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
    _require_finite(f)
    h = f.grid.spacing
    quad = _kernel_matrix(f.grid.n_points, f.grid.length) @ f.values
    fpp = _second_difference(f.values, h)
    corr = -(h**2 / 12.0) * f.values + (h**4 / 720.0) * (f.values + 3.0 * fpp)
    return f.with_values(quad + corr)


def _rhs_spectrum(uh: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectrum of the evolution right-hand side from the spectrum of u.

    Acts on the last axis, so a (B, n//2 + 1) stack of spectra costs the
    same four transform calls as one spectrum, and each row equals its own
    evaluation bitwise.  Five transforms in four calls: one stacked irfft of
    the kept band of u and u_x, the rfft of u^2 and its irfft, and one rfft
    of the remaining nonlinearity u^2 (r3 u + r4 u^2) + SLOPE_SQ u_x^2.  Each
    of its three terms is a product of two kept-band factors, so the sum is
    alias-free in the kept band, which is all that is kept of it.
    """
    t = _rhs_tables(grid.n_points, grid.length)
    n = grid.n_points
    quad, rest = t["quad"], t["rest"]
    band = len(quad)
    ubh = uh[..., None, :band]
    both = np.fft.irfft(t["value_slope"][:, :band] * ubh, n)
    ub, ubx = both[..., 0, :], both[..., 1, :]
    u2h = np.fft.rfft(ub * ub)[..., :band]
    u2 = np.fft.irfft(u2h, n)
    _, _, _, r3, r4 = REACTION
    nlh = np.fft.rfft(u2 * (r3 * ub + r4 * u2) + SLOPE_SQ * (ubx * ubx))[..., :band]
    out = t["lin"] * uh
    out[..., :band] += quad * u2h + rest * nlh
    return out


def _rhs_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Evolution right-hand side at the grid points."""
    return np.fft.irfft(_rhs_spectrum(np.fft.rfft(values), grid), grid.n_points)


def evolution_rhs(s: State) -> Field:
    """Value of u_t: d/dx (u + 7u^2) - d/dx (1-d^2/dx^2)^{-1} R(u)."""
    _require_finite(s.u)
    return s.u.with_values(_rhs_values(s.u.values, s.u.grid))


def local_form_residual(u: Field, ut: Field) -> Field:
    """Pointwise left side of the local form of the equation.

    u_t + u_x + 6uu_x - 6u^2 u_x + 12u^3 u_x + u_xxx - u_xxt
    + 14u u_xxx + 28 u_x u_xx, assembled from the same dealiased products as
    the nonlocal right-hand side.  Consistency oracle, not a solver.
    """
    require_same_grid(u, ut)
    _require_finite(u)
    _require_finite(ut)
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
