"""Spatial operators of the nonlocal evolution form.

The equation evolves as

    u_t = d/dx (u + 7 u^2) - d/dx (1 - d^2/dx^2)^{-1} R(u),
    R(u) = 2u + 10u^2 - 2u^3 + 3u^4 - 7 u_x^2,

on a periodic grid.  All derivatives are Fourier collocation derivatives and
the Helmholtz inverse is the multiplier 1/(1+k^2).  The right-hand side is
``lin * uh`` plus _nonlinear_spectrum, the one dealiased nonlinearity, which
evolution._rk4 steps apart: under the 2/3 rule each of its products
multiplies two band-truncated factors, so it is alias-free in the kept band
and commutes exactly with band-limited translations and reflections.  The
composed right-hand side and the term-by-term dealiased R(u) it is checked
against live with the test oracles (tests/oracles.py).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DerivativeOrderError
from .grid import Field, Grid

# Coefficients of the nonlocal form, in ascending powers of u:
#   u_t = d/dx FLUX(u) - d/dx (1 - d^2/dx^2)^{-1} R(u),
#   FLUX(u) = sum_j FLUX[j] u^j,  R(u) = sum_j REACTION[j] u^j + SLOPE_SQ u_x^2.
# Constant terms drop out of every x-derivative; they are kept so the tuples
# read as polynomials.  The test oracles (tests/oracles.py: the local form,
# the dispersion law) keep their own hand-derived coefficients on purpose, so
# they check this record independently.
FLUX = (0.0, 1.0, 7.0)
REACTION = (0.0, 2.0, 10.0, -2.0, 3.0)
SLOPE_SQ = -7.0

# ---------------------------------------------------------------------------
# spectral helpers


# Grids whose tables each cache keeps: the most any command reuses, since a run
# or a sweep group evolves one grid and the canonical acceptance runs cycle
# three.  The steady weak form meets a new grid length with every profile, so
# a larger cache would only keep tables that are never read again.
_CACHED_GRIDS = 4


def _nyquist_mask(n_points: int, k: np.ndarray) -> np.ndarray:
    """Ones but at the Nyquist mode of an even grid, which odd-order derivatives of real data drop."""
    nyq = np.ones_like(k)
    if n_points % 2 == 0:
        nyq[-1] = 0.0
    return nyq


@lru_cache(maxsize=_CACHED_GRIDS)
def _spectral_tables(n_points: int, length: float):
    """Wavenumbers, dealias mask, first derivative and Helmholtz multiplier.

    Only what the package reads more than once is kept; spectral_derivative
    builds its order-2 and order-3 multipliers from ``k`` per call.  Cached
    per (n, L); entries are read-only, so sharing across threads is safe and
    invisible to callers.
    """
    k = 2.0 * np.pi * np.fft.rfftfreq(n_points, d=length / n_points)
    mode = np.arange(n_points // 2 + 1)
    tables = {
        "k": k,
        "keep": mode < max(1, n_points // 3),
        "d1": 1j * k * _nyquist_mask(n_points, k),
        "helmholtz": 1.0 / (1.0 + k**2),
    }
    for arr in tables.values():
        arr.setflags(write=False)
    return tables


@lru_cache(maxsize=_CACHED_GRIDS)
def _rhs_tables(n_points: int, length: float):
    """Multipliers of the spectral right-hand side for a grid size.

    Kept apart from _spectral_tables, which the steady weak form and the
    symmetry analysis also read, so that only evolved grids pay for these.
    Read-only.
    """
    t = _spectral_tables(n_points, length)
    d1, helm = t["d1"], t["helmholtz"]
    band = int(t["keep"].sum())
    tables = {
        # rows 1 and d1: one irfft of (this * uh) gives u and u_x together
        "value_slope": np.stack((np.ones_like(d1), d1)),
        # the right-hand side as multipliers of uh, of the kept band of the
        # u^2 spectrum and of the rest of the nonlinearity (_nonlinear_spectrum)
        "lin": d1 * (FLUX[1] - REACTION[1] * helm),
        "quad": (d1 * (FLUX[2] - REACTION[2] * helm))[:band],
        "rest": (-d1 * helm)[:band],
    }
    for arr in tables.values():
        arr.setflags(write=False)
    return tables


def _derivative_multiplier(n_points: int, length: float, order: int) -> np.ndarray:
    """Multiplier of the derivative of order 1, 2 or 3.

    Orders 2 and 3 are built per call from the cached ``k``: the package
    never reads them twice, so the cache does not keep them.
    """
    t = _spectral_tables(n_points, length)
    if order == 1:
        return t["d1"]
    k = t["k"]
    ik = 1j * k
    return ik**2 if order == 2 else ik**3 * _nyquist_mask(n_points, k)


# ---------------------------------------------------------------------------
# public operations


def spectral_derivative(u: Field, order: int) -> Field:
    """Fourier-collocation derivative of order 1, 2 or 3."""
    if order not in (1, 2, 3):
        raise DerivativeOrderError(f"derivative order must be 1, 2 or 3, got {order!r}")
    mult = _derivative_multiplier(u.grid.n_points, u.grid.length, order)
    return u.with_values(np.fft.irfft(mult * np.fft.rfft(u.values), u.grid.n_points))


def helmholtz_inverse(f: Field) -> Field:
    """Solve (1 - d^2/dx^2) P = f on the periodic grid (multiplier 1/(1+k^2))."""
    t = _spectral_tables(f.grid.n_points, f.grid.length)
    return f.with_values(
        np.fft.irfft(t["helmholtz"] * np.fft.rfft(f.values), f.grid.n_points)
    )


def _nonlinear_spectrum(ubh: np.ndarray, grid: Grid) -> np.ndarray:
    """Kept band of the right-hand side without its linear part ``lin * uh``.

    ``ubh`` is the kept band of the spectrum of u, ``uh[..., :band]``; above
    the band this part is 0.  Acts on the last axis, so a (B, band) stack
    costs the same four transform calls as one row, and each row equals its
    own evaluation bitwise.  Five transforms in four calls: one stacked
    irfft of u and u_x, the rfft of u^2 and its irfft, and one rfft of the
    remaining nonlinearity u^2 (r3 u + r4 u^2) + SLOPE_SQ u_x^2.  Each of its
    three terms is a product of two kept-band factors, so the sum is
    alias-free in the kept band, which is all that is kept of it.
    """
    t = _rhs_tables(grid.n_points, grid.length)
    n = grid.n_points
    quad, rest = t["quad"], t["rest"]
    band = len(quad)
    both = np.fft.irfft(t["value_slope"][:, :band] * ubh[..., None, :], n)
    ub, ubx = both[..., 0, :], both[..., 1, :]
    u2h = np.fft.rfft(ub * ub)[..., :band]
    u2 = np.fft.irfft(u2h, n)
    _, _, _, r3, r4 = REACTION
    nlh = np.fft.rfft(u2 * (r3 * ub + r4 * u2) + SLOPE_SQ * (ubx * ubx))[..., :band]
    return quad * u2h + rest * nlh

