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
    "SeededUniform",
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
    # tolerance wide enough for the 12 significant digits of a CSV's xi column
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


# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier (numpy.random)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix, whose multiplier moves on with every value it hashes."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``, in Python ints."""
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    # the seed's 32-bit words, least significant first; 0 is one word
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    return tuple(out[2 * j] | out[2 * j + 1] << 32 for j in range(4))


class SeededUniform:
    """numpy's ``default_rng(seed).uniform(lo, hi)`` stream, bit for bit, without numpy.random.

    SeedSequence mixes the seed into four 64-bit words; PCG64 (XSL-RR output
    on a 128-bit LCG state) takes the first two as its state and the last two
    as its stream; a draw is ``lo + (hi - lo) * (next64 >> 11) * 2**-53``.
    """

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # pcg64_srandom_r: one step from state 0, add the seed, step again
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, lo: float, hi: float) -> float:
        lo, hi = float(lo), float(hi)
        return lo + (hi - lo) * ((self._next64() >> 11) * 2.0**-53)


def random_bumps(
    rng: SeededUniform,
    n: int,
    domain: tuple[float, float],
    width_range: tuple[float, float],
) -> list[TestFunction]:
    """Random test-function family with supports inside the given interval.

    ``rng`` provides ``uniform(lo, hi)``, one float in [lo, hi) per call
    (SeededUniform, or a numpy Generator); each bump draws its width, then
    its centre.
    """
    lo, hi = domain
    out = []
    for _ in range(n):
        w = rng.uniform(*width_range)
        c = rng.uniform(lo + w, hi - w)
        out.append(TestFunction(c, w))
    return out
