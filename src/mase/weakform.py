"""Quadrature evaluation of the equation's distributional statements.

Two residuals: the steady traveling-wave identity

    int (cU + U + 7U^2) psi_x - (1-dxx)^{-1} R(U) psi_x dx = 0,

and the unsteady weak identity

    int int u phi_t - (u + 7u^2) phi_x + (1-dxx)^{-1} R(u) phi_x dt dx = 0.

The reflection bracket identity of the symmetric-implies-traveling argument
is checked by the test oracles (tests/oracles.py), not here.

Test functions are compactly supported bumps with closed-form derivatives;
residuals are normalized by the test-function mass so tolerances compare
across widths.

Each field term is formed once and paired with every bump: the steady
bracket (c + 1) U + 7 U^2 - P(R(U)) once per profile, and u, the flux and
P(R(u)) once per stack of snapshot rows (evolution._value_blocks), with one
derivative and one Helmholtz solve per stack.  Rows and row sums equal their
one-snapshot evaluations bitwise; the temporal factors rho and rho_t are
one array evaluation each per block of snapshot times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SupportError
from .evolution import Trajectory, _value_blocks
from .grid import MIN_POINTS, Field, Grid
from .operators import (
    FLUX,
    REACTION,
    SLOPE_SQ,
    _spectral_tables,
    helmholtz_inverse,
    spectral_derivative,
)

if TYPE_CHECKING:
    from .traveling_wave import TWProfile

__all__ = [
    "TestFunction",
    "ResidualReport",
    "unsteady_weak_residual",
    "steady_residual_report",
    "random_bumps",
]


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported bump on [center - width, center + width].

    The bump (1 - y^2)^4, y = (x - center) / width, vanishes with its first
    three derivatives exactly at the support boundary.
    """

    __test__ = False  # not a pytest class, despite the name

    center: float
    width: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.width)) or self.width <= 0:
            raise ValueError("test function needs finite center and positive width")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    def _profile(self, y: np.ndarray, order: int) -> np.ndarray:
        q = 1.0 - y * y
        if order == 0:
            return q**4
        if order == 1:
            return -8.0 * y * q**3
        if order == 2:
            return q * q * (56.0 * y * y - 8.0)
        if order == 3:
            return 48.0 * y * q * (3.0 - 7.0 * y * y)
        raise ValueError(f"derivative order must be 0..3, got {order}")

    def derivative(self, x, order: int = 0) -> np.ndarray:
        """Bump derivative of the given order at x."""
        y = (np.asarray(x, dtype=np.float64) - self.center) / self.width
        out = np.where(np.abs(y) < 1.0, self._profile(np.clip(y, -1.0, 1.0), order), 0.0)
        return out / self.width**order

    def value(self, x) -> np.ndarray:
        return self.derivative(x, 0)

    def mass(self) -> float:
        """Integral of |bump| (the bump is non-negative)."""
        return float(self.width * 256.0 / 315.0)

    def descriptor(self) -> dict:
        return {"center": self.center, "width": self.width, "kind": "polynomial_bump"}


@dataclass(frozen=True)
class ResidualReport:
    per_test_function: tuple[tuple[dict, float], ...]
    normalization: float

    def __post_init__(self):
        if not self.per_test_function:
            raise ValueError("a residual report needs at least one test function")
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")

    def max_residual(self) -> float:
        return max(abs(r) for _, r in self.per_test_function)


# ---------------------------------------------------------------------------
# quadrature helpers


def _profile_grid(profile: TWProfile) -> Grid:
    """The periodic grid of the samples; too few or unequally spaced ones raise ValueError."""
    n, d = len(profile.xi), np.diff(profile.xi)
    # tolerance wide enough for 12-significant-digit CSV round trips
    if n < MIN_POINTS or np.max(d) - np.min(d) > 1e-6 * np.mean(d):
        raise ValueError(f"weak residuals need at least {MIN_POINTS} uniformly spaced samples")
    return Grid(n, float(np.mean(d)) * n)


def _pointwise_reaction(u: np.ndarray, ux: np.ndarray) -> np.ndarray:
    """R(u) from sampled values and slopes, without dealiasing."""
    _, r1, r2, r3, r4 = REACTION
    return r1 * u + r2 * u**2 + r3 * u**3 + r4 * u**4 + SLOPE_SQ * ux**2


def _profile_reaction(profile: TWProfile, grid: Grid) -> np.ndarray:
    u = profile.values
    if profile.slopes is not None:
        ux = profile.slopes
    else:
        ux = spectral_derivative(Field(grid, u), 1).values
    return _pointwise_reaction(u, ux)


# ---------------------------------------------------------------------------
# residual operations


def _steady_residuals(profile: TWProfile, psis: list[TestFunction]) -> list[float]:
    """Normalized quadrature of the steady traveling-wave identity, per bump.

    Trapezoid rule on the profile's own grid; the nonlocal term uses the
    Helmholtz multiplier, and R(U) uses the profile's phase-plane slopes when
    available (spectral differentiation otherwise).  The bracket
    (c + 1) U + 7 U^2 - P(R(U)) is formed once and paired with every bump.
    """
    grid = _profile_grid(profile)
    for psi in psis:
        lo, hi = psi.support
        if lo < profile.xi[0] or hi > profile.xi[-1]:
            raise SupportError(
                f"test function support [{lo:.3g}, {hi:.3g}] exceeds the sampled window "
                f"[{profile.xi[0]:.3g}, {profile.xi[-1]:.3g}]"
            )
        if grid.spacing > psi.width / 32.0:
            raise ValueError(
                f"profile spacing {grid.spacing:.3g} too coarse for width {psi.width:.3g}"
            )
    u = profile.values
    r = _profile_reaction(profile, grid)
    p = helmholtz_inverse(Field(grid, r)).values
    c = profile.params.speed
    bracket = (c + FLUX[1]) * u + FLUX[2] * u**2 - p
    return [float(grid.spacing * np.sum(bracket * psi.derivative(profile.xi, 1)) / psi.mass())
            for psi in psis]


def unsteady_weak_residual(
    traj: Trajectory, phis: list[TestFunction], rho: TestFunction
) -> list[float]:
    """Normalized space-time quadrature of the weak evolution identity.

    ``phis`` are the spatial bumps, ``rho`` the temporal one; each product
    test function must be supported strictly inside the domain and the
    recorded time window.  Returns one residual per bump.  The snapshots
    near rho's support are taken a block of rows at a time (_value_blocks):
    one derivative and one Helmholtz solve per block give u, the flux and
    P(R(u)) of every row, which are paired with every bump.  rho and rho_t
    are one array evaluation each per block.
    """
    grid = traj.grid
    times = traj.times()
    for phi in phis:
        lo, hi = phi.support
        if lo < 0.0 or hi > grid.length:
            raise SupportError("spatial test function leaves the domain")
    t_lo, t_hi = rho.support
    if t_lo <= times[0] or t_hi >= times[-1]:
        raise SupportError("temporal test function leaves the recorded window")

    tables = _spectral_tables(grid.n_points, grid.length)
    n = grid.n_points
    x = grid.points
    phi_v = [phi.value(x) for phi in phis]
    phi_x = [phi.derivative(x, 1) for phi in phis]
    near = np.flatnonzero((times >= t_lo - 2 * rho.width) & (times <= t_hi + 2 * rho.width))
    slices = np.zeros((len(phis), len(times)))
    for rows, u in _value_blocks([traj.snapshots[i] for i in near]):
        at = near[rows]
        ux = np.fft.irfft(tables["d1"] * np.fft.rfft(u), n)
        p = np.fft.irfft(tables["helmholtz"] * np.fft.rfft(_pointwise_reaction(u, ux)), n)
        rho_v = rho.value(times[at])[:, None]
        rho_t = rho.derivative(times[at], 1)[:, None]
        flux = FLUX[1] * u + FLUX[2] * u**2
        for j in range(len(phis)):
            integrand = u * phi_v[j] * rho_t - flux * phi_x[j] * rho_v + p * phi_x[j] * rho_v
            slices[j, at] = grid.spacing * np.sum(integrand, axis=-1)
    return [float(np.trapezoid(row, times)) / (phi.mass() * rho.mass())
            for phi, row in zip(phis, slices)]


def steady_residual_report(profile: TWProfile, psis: list[TestFunction]) -> ResidualReport:
    residuals = _steady_residuals(profile, psis)
    entries = tuple((psi.descriptor(), res) for psi, res in zip(psis, residuals))
    mean_mass = float(np.mean([psi.mass() for psi in psis]))
    return ResidualReport(entries, mean_mass)


def random_bumps(
    rng: np.random.Generator,
    n: int,
    domain: tuple[float, float],
    width_range: tuple[float, float],
) -> list[TestFunction]:
    """Random test-function family with supports inside the given interval."""
    lo, hi = domain
    out = []
    for _ in range(n):
        w = rng.uniform(*width_range)
        c = rng.uniform(lo + w, hi - w)
        out.append(TestFunction(c, w))
    return out
