"""Traveling-wave profiles from the planar system of the steady equation.

A profile U(xi) traveling at speed ``c`` satisfies, after one integration of
the steady weak equation (integration constant ``A``) and application of
(1 - d^2/dx^2), (1 - d^2/dx^2) [c U + FLUX(U)] - R(U, U') = A with the
coefficients of ``operators``, that is

    D(U) U'' + 7 (U')^2 + F(U) = 0,
    D(U) = c + FLUX'(U) = c + 1 + 14 U,
    F(U) = A + R(U, 0) - FLUX(U) - c U = A - (c - 1) U + 3 U^2 - 2 U^3 + 3 U^4,

where 7 = 2 FLUX[2] + SLOPE_SQ.

The planar system (U, V=U') conserves

    H(U, V) = D(U) V^2 + 2 G(U),      G' = F,  G(0) = 0,

even in V, so bounded orbits are symmetric about the U-axis and profiles are
even about their extrema.  On a level set H = E the squared slope is
W(U) = (E - 2G(U)) / D(U); simple roots of E - 2G are turning points, and the
line D(U) = 0 is singular: orbits reaching it with finite limiting slope give
peaked waves, with unbounded slope cusped ones.  Every profile is built by
quadrature of dxi = dU / sqrt(W) over half-orbits; one endpoint rule
(_end_knots) absorbs the singularity of a turning-point or cusp end with a
square-root substitution and tabulates any other end plainly in U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConfigError, NonexistenceError, number
from .grid import Field, Grid
from .operators import FLUX, REACTION

__all__ = [
    "TWParams",
    "Regularity",
    "TWProfile",
    "uxx_coeff_poly",
    "force_poly",
    "potential_poly",
    "level_polynomial",
    "singular_line",
    "level_roots",
    "slope_squared",
    "solitary_profile",
    "periodic_profile",
    "peaked_composite",
    "profile_to_field",
]

SINGULAR_GUARD = 1e-12


@dataclass(frozen=True)
class TWParams:
    """Speed c, integration constant A and first-integral level E; -0.0 is stored as 0.0."""

    speed: float
    integration_constant: float = 0.0
    energy: float = 0.0

    def __post_init__(self):
        for name in ("speed", "integration_constant", "energy"):
            object.__setattr__(self, name, float(number(name, getattr(self, name))) + 0.0)


class Regularity(str, Enum):
    SMOOTH_SOLITARY = "smooth_solitary"
    SMOOTH_PERIODIC = "smooth_periodic"
    PEAKED = "peaked"
    CUSPED = "cusped"


@dataclass(frozen=True)
class TWProfile:
    """Sampled traveling-wave profile (or wave segment).

    ``slopes`` carries the exact phase-plane slope at each sample when the
    profile came from quadrature; it keeps downstream residual tests free of
    spectral differentiation artifacts at corners.  ``evaluator`` is an
    optional callable xi -> U attached by the constructors for accurate
    off-sample evaluation; it is not serialized.
    """

    params: TWParams
    xi: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    regularity: Regularity
    period: float | None = None
    slopes: np.ndarray | None = field(default=None, repr=False)
    evaluator: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if xi.shape != vals.shape or xi.ndim != 1:
            raise ValueError("xi and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(vals))):
            raise ValueError("profile samples must be finite")
        if np.any(np.diff(xi) <= 0):
            raise ValueError("xi must be strictly increasing")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "values", vals)
        if self.slopes is not None:
            sl = np.asarray(self.slopes, dtype=np.float64)
            if sl.shape != vals.shape:
                raise ValueError("slopes must match values in shape")
            object.__setattr__(self, "slopes", sl)

    @property
    def amplitude(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# the planar system
#
# The polynomials are built with plain array arithmetic rather than
# Polynomial algebra: it is faster, and it keeps every coefficient bitwise
# equal to the hand-derived literals (1 - c is exactly -(c - 1)).

def uxx_coeff_poly(params: TWParams) -> Polynomial:
    """Coefficient of U'' in the profile equation: D = c + FLUX' = c + 1 + 14 U."""
    return Polynomial([params.speed + FLUX[1], 2.0 * FLUX[2]])


def force_poly(params: TWParams) -> Polynomial:
    """F(U) = A + R(U, 0) - FLUX(U) - c U = A - (c-1) U + 3 U^2 - 2 U^3 + 3 U^4."""
    coef = np.array(REACTION)
    coef[: len(FLUX)] -= FLUX
    coef[0] += params.integration_constant
    coef[1] -= params.speed
    return Polynomial(coef)


def potential_poly(params: TWParams) -> Polynomial:
    """Antiderivative G of F with G(0) = 0; 2G is the potential in H."""
    f = force_poly(params).coef
    return Polynomial(np.concatenate([[0.0], f / np.arange(1, len(f) + 1)]))


def level_polynomial(params: TWParams) -> Polynomial:
    """E - 2 G(U); its simple roots are the turning points of the level."""
    with np.errstate(over="ignore"):  # |A| > 9e307; _solve refuses it
        coef = -2.0 * potential_poly(params).coef
    coef[0] += params.energy
    return Polynomial(coef)


def singular_line(params: TWParams) -> float:
    """Elevation where the U'' coefficient vanishes: U = -(c+1)/14."""
    return -(params.speed + FLUX[1]) / (2.0 * FLUX[2])


def slope_squared(u, params: TWParams):
    """Squared profile slope W(U) = (E - 2G(U)) / D(U) on the level set."""
    u = np.asarray(u, dtype=np.float64)
    return level_polynomial(params)(u) / uxx_coeff_poly(params)(u)


def _real_roots(poly: Polynomial) -> list[float]:
    """Real roots of poly, increasing, closer ones merged.

    The roots are the eigenvalues of the companion matrix (Polynomial.roots)
    with a small imaginary part, polished by two Newton steps kept only where
    they shrink |poly| (so an exact zero stays exact and a double root is not
    thrown off).  Roots within 1e-9 of each other count once.
    """
    z = poly.roots()
    x = z.real[np.abs(z.imag) <= 1e-7 * np.maximum(1.0, np.abs(z))]
    dpoly = poly.deriv()
    # a wild step is refused, and so is one whose value overflows
    with np.errstate(over="ignore", invalid="ignore"):
        p = poly(x)
        for _ in range(2):
            dp = dpoly(x)
            trial = x - np.divide(p, dp, out=np.zeros_like(x), where=dp != 0.0)
            p_trial = poly(trial)
            shrinks = np.abs(p_trial) < np.abs(p)
            x, p = np.where(shrinks, trial, x), np.where(shrinks, p_trial, p)
    roots: list[float] = []
    for r in np.sort(x).tolist():
        if not roots or r - roots[-1] > 1e-9:
            roots.append(r)
    return roots


def _beyond_double_range(params: TWParams) -> ConfigError:
    return ConfigError(f"speed {params.speed:g}, integration constant "
                       f"{params.integration_constant:g} and energy {params.energy:g} are "
                       "beyond the range where the wave can be computed in double precision")


def _solve(params: TWParams, poly: Polynomial, *points: float) -> list[float]:
    """_real_roots of poly, refused where the level's terms overflow up to them and ``points``."""
    if not np.all(np.isfinite(poly.coef)):
        raise _beyond_double_range(params)
    roots = _real_roots(poly)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = Polynomial(np.abs(level_polynomial(params).coef))(np.abs([*roots, *points]))
    if not np.all(np.isfinite(terms)):
        raise _beyond_double_range(params)
    return roots


@lru_cache(maxsize=16)
def level_roots(params: TWParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Turning points and tangencies of a level, each increasing.

    The turning points are all real roots of E - 2G(U).  The tangencies are
    the elevations where the level just touches E - 2G = 0 (even-order
    roots): the equilibria (roots of F) whose potential level equals E.  A
    tangency is listed once among the turning points, in place of the roots
    within 1e-6 of it (a double root splits in two).

    Each of force_poly and level_polynomial is solved once per level: the
    result is cached, so a constructor and the caller that reports its roots
    share the solve.
    """
    level = level_polynomial(params)
    scale = max(1.0, abs(params.energy))
    tangent = [r for r in _solve(params, force_poly(params)) if abs(level(r)) <= 1e-10 * scale]
    roots = [r for r in _solve(params, level) if all(abs(r - t) > 1e-6 for t in tangent)]
    return tuple(sorted(roots + tangent)), tuple(tangent)


# ---------------------------------------------------------------------------
# the piecewise-cubic interpolant
#
# Coefficients, interval search and evaluation order follow scipy's
# CubicHermiteSpline / PPoly, so the profiles are bitwise equal to the
# scipy-built ones (tests/test_interp.py holds that) without importing scipy
# at run time.


class _PiecewiseCubic:
    """C1 cubic through values ``y`` with slopes ``dydx`` at knots ``x``.

    Row k of ``c`` multiplies (xi - x[i])^(3-k) on [x[i], x[i+1]); the end
    intervals extend beyond the knots, and NaN points give NaN.
    """

    def __init__(self, x, y, dydx):
        x, y, dydx = (np.asarray(a, dtype=np.float64) for a in (x, y, dydx))
        if x.ndim != 1 or len(x) < 2:
            raise ValueError("knots must be a 1-d array of at least 2 points")
        if y.shape != x.shape or dydx.shape != x.shape:
            raise ValueError("knot data must match the knots in shape")
        if not all(np.all(np.isfinite(a)) for a in (x, y, dydx)):
            raise ValueError("knots and knot data must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knots must be strictly increasing")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=np.float64)
        i = np.clip(np.searchsorted(self.x, xi, side="right") - 1, 0, len(self.x) - 2)
        s = xi - self.x[i]
        # power sum from the constant term up, as PPoly evaluates (not Horner)
        res = np.zeros_like(s)
        z = np.ones_like(s)
        for row in self.c[::-1]:
            res += row[i] * z
            z *= s
        return res


# ---------------------------------------------------------------------------
# quadrature machinery

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _panel_integrals(fn: Callable[[np.ndarray], np.ndarray], knots: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of fn over each [knots[i], knots[i+1]]."""
    a = knots[:-1]
    half = 0.5 * np.diff(knots)
    mid = a + half
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GL_WEIGHTS)


def _cumulative(fn: Callable[[np.ndarray], np.ndarray], knots: np.ndarray) -> np.ndarray:
    out = np.zeros(len(knots))
    out[1:] = np.cumsum(_panel_integrals(fn, knots))
    return out


def _deflate(poly: Polynomial, root: float) -> Polynomial:
    """poly // (U - root); the remainder (~= poly(root)) is discarded."""
    return poly // Polynomial([-root, 1.0])


def _is_root(poly: Polynomial, u: float) -> bool:
    """Whether |poly(u)| <= 1e-9 max(1, max |coef|)."""
    return abs(poly(u)) <= 1e-9 * max(1.0, float(np.max(np.abs(poly.coef))))


def _slope_sq_parts(params: TWParams, ends) -> tuple[Polynomial, Polynomial]:
    """Numerator E - 2G and denominator D of W for an orbit piece with these ends.

    When an end sits on the singular line D = 14 (U - U_s) = 0 and the level
    passes through it too (a corner), the common factor U - U_s is divided
    out of both, leaving the finite corner slope.
    """
    num, den = level_polynomial(params), uxx_coeff_poly(params)
    u_s = singular_line(params)
    if any(_is_root(den, e) for e in ends) and _is_root(num, u_s):
        num, den = _deflate(num, u_s), _deflate(den, u_s)
    return num, den


def _end_knots(
    num: Polynomial, den: Polynomial, end: float, inner: float, n_panels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Knots (U, xi) of dxi = dU / sqrt(W), W = num/den, from ``end`` toward ``inner``.

    xi is 0 at ``end``.  At a turning point (root of num) W = (U - end) w, at
    a cusp (root of den) W = w / (U - end); the factor is divided out, and
    U = end + sign * s^2 leaves the finite integrand 2/sqrt(|w|) resp.
    2 s^2/sqrt(|w|) in s.  Any other end (a regular point or a canceled
    corner) is a plain panel table in U.
    """
    if _is_root(num, end):
        num, power = _deflate(num, end), 0.0
    elif _is_root(den, end):
        den, power = _deflate(den, end), 2.0
    else:
        u_knots = np.linspace(end, inner, n_panels + 1)
        xi = _cumulative(lambda u: 1.0 / np.sqrt(np.abs(num(u) / den(u))), u_knots)
        return u_knots, np.abs(xi)
    direction = np.sign(inner - end)

    def integrand(s: np.ndarray) -> np.ndarray:
        u = end + direction * s * s
        return 2.0 * s**power / np.sqrt(np.abs(num(u) / den(u)))

    s_knots = np.linspace(0.0, np.sqrt(abs(inner - end)), n_panels + 1)
    return end + direction * s_knots**2, _cumulative(integrand, s_knots)


def _segment_knots(params: TWParams, u_from: float, u_to: float):
    """Quadrature table (xi, U, V) for a monotone orbit piece on one level.

    Each end is a simple turning point, a singular contact with finite corner
    slope or a regular point (see _end_knots); a cusp is rejected.  xi starts
    at 0 at ``u_from``.  Also returns the slope rule U -> V for elevations
    running from ``u_from`` to ``u_to``: zero at a turning end.
    """
    if u_from == u_to:
        raise ValueError("segment endpoints must differ")
    num, den = _slope_sq_parts(params, (u_from, u_to))
    if _is_root(den, u_from) or _is_root(den, u_to):
        raise NonexistenceError(
            "segment endpoint reaches the singular line off the level (cusp); "
            "an unbounded end slope has no quadrature table here"
        )
    direction = 1.0 if u_to > u_from else -1.0
    turning = (_is_root(num, u_from), _is_root(num, u_to))

    def slopes(u: np.ndarray) -> np.ndarray:
        v = direction * np.sqrt(np.abs(num(u) / den(u)))
        if turning[0]:
            v[0] = 0.0
        if turning[1]:
            v[-1] = 0.0
        return v

    mid = 0.5 * (u_from + u_to)
    u_a, xi_a = _end_knots(num, den, u_from, mid, 600)
    u_b, xi_b = _end_knots(num, den, u_to, mid, 600)

    # assemble: xi measured from u_from; the b-side runs backwards
    u_knots = np.concatenate([u_a, u_b[::-1][1:]])
    xi_knots = np.concatenate([xi_a, xi_a[-1] + (xi_b[-1] - xi_b[::-1][1:])])
    v_knots = slopes(u_knots)

    # guard against duplicate xi from the double endpoint, relative to the
    # table's length (a tall wave's half-orbit can be far shorter than 1e-15)
    good = np.concatenate([[True], np.diff(xi_knots) > 1e-15 * xi_knots[-1]])
    return xi_knots[good], u_knots[good], v_knots[good], slopes


def _traversable(params: TWParams, lo: float, hi: float, roots: Sequence[float]) -> bool:
    """Whether W > 0 on (lo, hi), given every root of the level there.

    W = (E - 2G)/D changes sign only at a root of the level or at U_s, so it
    is positive throughout exactly when none lies strictly inside (more than
    1e-9 from either end) and it is positive at the midpoint.
    """
    inside = [r for r in (*roots, singular_line(params)) if lo + 1e-9 < r < hi - 1e-9]
    return not inside and bool(slope_squared(0.5 * (lo + hi), params) > 0)


# ---------------------------------------------------------------------------
# profile constructors


def solitary_profile(c: float, branch: str = "auto") -> TWProfile:
    """Solitary wave of speed c by quadrature of the homoclinic level A = E = 0.

    The crest is the nearest simple root of -2G on the chosen branch
    (``auto`` tries positive elevations first), or the singular line when it
    comes first: a cusped wave, or a peaked one if the level passes through
    it.  The head down to half the crest comes from _end_knots, the rest
    from _solitary_from_head.  The result is even about xi = 0 and sampled
    at 4096 points uniformly over the window.
    """
    params = TWParams(float(c), 0.0, 0.0)
    d0 = uxx_coeff_poly(params)(0.0)
    fprime0 = force_poly(params).deriv()(0.0)
    if abs(d0) <= SINGULAR_GUARD:
        raise NonexistenceError("origin lies on the singular line; no decaying orbit")
    if fprime0 / d0 >= 0:
        raise NonexistenceError(
            f"origin is not a saddle at speed {c}: F'(0)/D(0) = {fprime0 / d0:.3g} >= 0"
        )
    # -2G(U) = U^2 * q(U); roots of q are the crest candidates
    level = level_polynomial(params)
    q = Polynomial(level.coef[2:])
    u_singular = singular_line(params)
    crests = _solve(params, q, u_singular)
    for sign in {"auto": [1.0, -1.0], "positive": [1.0], "negative": [-1.0]}[branch]:
        roots = [r for r in crests if r * sign > 1e-12]
        first_root = min(roots, key=abs) if roots else None
        contact = None
        if sign * u_singular > 1e-12 and (first_root is None or abs(u_singular) < abs(first_root)):
            contact = u_singular
        if contact is not None or first_root is not None:
            break
    else:
        raise NonexistenceError(
            f"no crest and no singular contact on the {branch} branch at speed {c}"
        )

    if contact is not None:
        if _is_root(level, contact):  # the level passes through: a corner
            if force_poly(params)(contact) >= 0:
                raise NonexistenceError(
                    "contact with the singular line admits no real corner slope"
                )
            regularity = Regularity.PEAKED
        else:
            regularity = Regularity.CUSPED
        u_top = contact
    else:
        u_top = first_root
        if not _traversable(params, *sorted((0.0, u_top)), [0.0, u_top]):
            raise NonexistenceError(
                f"level is not traversable between 0 and {u_top:.6g} at speed {c}"
            )
        regularity = Regularity.SMOOTH_SOLITARY
    num, den = _slope_sq_parts(params, (u_top,))
    n_head = 320 if regularity is Regularity.SMOOTH_SOLITARY else 800
    u_head, xi_head = _end_knots(num, den, u_top, 0.5 * u_top, n_head)
    kappa = float(np.sqrt(-fprime0 / d0))  # saddle decay rate
    return _solitary_from_head(params, u_top, num, den, xi_head, u_head, regularity, kappa)


def _solitary_from_head(
    params: TWParams,
    u_top: float,
    num: Polynomial,
    den: Polynomial,
    xi_head: np.ndarray,
    u_head: np.ndarray,
    regularity: Regularity,
    kappa: float,
) -> TWProfile:
    """Solitary profile from its tabulated head, crest ``u_top`` down to u_top/2.

    ``num`` and ``den`` are the squared slope's parts (_slope_sq_parts).

    Appends the saddle tail U = (u_top/2) exp(-tau) down to 1e-9 |u_top|,
    interpolates by cubic Hermite on the exact slopes (a cusp's crest knot
    takes the chord of its panel), continues analytically with the saddle
    decay rate ``kappa`` beyond the table, and samples 4096 points over a
    window whose edges sit where the tail reaches 1e-7 |u_top|.  A speed so
    large that no positive window or no increasing knots exist is a
    ConfigError.
    """
    sign = np.sign(u_top)
    u_mid = 0.5 * u_top
    tail_rel = 1e-9
    tau_max = float(np.log(abs(u_mid) / (tail_rel * abs(u_top))))

    def tail_integrand(tau: np.ndarray) -> np.ndarray:
        u = u_mid * np.exp(-tau)
        return np.abs(u) / np.sqrt(np.abs(slope_squared(u, params)))

    tau_knots = np.linspace(0.0, tau_max, max(64, int(tau_max / 0.02)) + 1)
    xi_tail = xi_head[-1] + _cumulative(tail_integrand, tau_knots)
    u_tail = u_mid * np.exp(-tau_knots)

    xi_knots = np.concatenate([xi_head, xi_tail[1:]])
    u_knots = np.concatenate([u_head, u_tail[1:]])
    xi_cut = float(xi_knots[-1])
    u_cut = float(u_knots[-1])
    # u_cut = 1e-9 |u_top| is below the target, so the edge is on the
    # analytic continuation
    window = 2.0 * (xi_cut - np.log(1e-7 * abs(u_top) / abs(u_cut)) / kappa)
    # below c ~ -3e12 the cusped tail is shorter than ln(100)/kappa
    if not (window > 0 and np.all(np.diff(xi_knots) > 0)):
        raise _beyond_double_range(params)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_knots = -sign * np.sqrt(np.abs(num(u_knots) / den(u_knots)))
    if regularity is Regularity.SMOOTH_SOLITARY:
        v_knots[0] = 0.0
    elif regularity is Regularity.CUSPED:  # unbounded at the crest: the first head panel's chord
        v_knots[0] = (u_knots[1] - u_knots[0]) / (xi_knots[1] - xi_knots[0])
    interp = _PiecewiseCubic(xi_knots, u_knots, v_knots)

    def evaluator(x: np.ndarray) -> np.ndarray:
        s = np.abs(np.asarray(x, dtype=np.float64))
        out = np.empty_like(s)
        inside = s <= xi_cut
        out[inside] = interp(s[inside])
        out[~inside] = u_cut * np.exp(-kappa * (s[~inside] - xi_cut))
        return out

    xi = centred_grid(4096, window / 4096)
    values = evaluator(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = -np.sign(xi) * sign * np.sqrt(np.abs(num(values) / den(values)))
    # at a cusp's xi = 0 sample -sign(0) meets an infinite slope; its one-sided
    # slopes are opposite, so it takes 0, as every other crest sample does
    slopes[~np.isfinite(slopes)] = 0.0
    return TWProfile(
        params=params,
        xi=xi,
        values=values,
        regularity=regularity,
        period=None,
        slopes=slopes,
        evaluator=evaluator,
    )


def periodic_profile(params: TWParams, n_points: int = 4096) -> TWProfile:
    """Periodic wave between the first two adjacent simple turning points that bound an orbit.

    Between them the squared slope is positive and the U'' coefficient keeps its sign.  The
    crest sits at xi = 0 and the n_points samples cover one period [-P/2, P/2) half-open
    (_periodic_wave).  A turning point on the singular line is a corner, so no smooth
    periodic wave exists there: see peaked_composite.
    """
    roots, tangent = level_roots(params)
    pair = next(((u1, u2) for u1, u2 in zip(roots, roots[1:]) if u1 not in tangent
                 and u2 not in tangent and _traversable(params, u1, u2, roots)), None)
    if pair is None:
        raise NonexistenceError("no adjacent turning-point pair bounds a periodic orbit "
                                "at this level")
    for end in pair:
        if _is_root(uxx_coeff_poly(params), end):
            raise NonexistenceError(
                f"turning point U = {end:.12g} lies on the singular line U_s = "
                f"{singular_line(params) + 0.0:.12g}: the orbit has a corner there "
                "(a peaked wave), not a smooth periodic one"
            )
    return _periodic_wave(params, pair[1], pair[0], n_points, Regularity.SMOOTH_PERIODIC)


def peaked_composite(speed: float, integration_constant: float, n_points: int = 4096) -> TWProfile:
    """Peaked periodic wave on the level through the singular line.

    The level E = 2 G(U_s) contains the singular elevation U_s with finite
    limiting slope sqrt(-F(U_s)/7) (requires F(U_s) < 0).  The wave is the
    periodic orbit between U_s and the largest turning point below it, with
    a corner at U_s: sampled as periodic_profile samples, over one period
    [-P/2, P/2) with the corner at xi = 0.
    """
    base = TWParams(speed, integration_constant, 0.0)
    u_s = singular_line(base)
    # for |c| >~ 1e79 F(U_s) overflows to +inf, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        f_s = force_poly(base)(u_s)
        energy = float(2.0 * potential_poly(base)(u_s))
    if not f_s < 0:
        raise NonexistenceError(
            f"F(U_s) = {f_s:.3g} >= 0: the singular line carries no real corner slope"
        )
    if not np.isfinite(energy):
        raise _beyond_double_range(base)
    params = TWParams(speed, integration_constant, energy)

    # (E - 2G)/(U - U_s) is -2F(U_s) > 0 at U_s and tends to -inf below it: the largest
    # level root below U_s (U_s itself excluded, to 1e-8 relative) bounds the half-orbit
    below = [r for r in level_roots(params)[0] if r < u_s - 1e-8 * max(1.0, abs(u_s))]
    if not below:
        raise NonexistenceError(
            "no turning point adjoins the singular contact on this level"
        )
    return _periodic_wave(params, u_s, below[-1], n_points, Regularity.PEAKED)


def _periodic_wave(params: TWParams, u_mid: float, u_end: float, n_points: int,
                   regularity: Regularity) -> TWProfile:
    """Periodic wave from the half-orbit from crest u_mid down to u_end, mirrored about u_mid.

    u_mid sits at xi = 0 and u_end at xi = +-P/2; the n_points samples cover
    [-P/2, P/2) half-open.  The slopes come from the squared slope with a
    corner canceled (_slope_sq_parts), and a peaked wave's corner sample
    takes the slope of its left limit.
    """
    # an end the solve did not resolve would end the orbit early; a level below the
    # smallest normal double is resolved (a root of E = 5e-324 rounds to 0.0)
    level, tiny = level_polynomial(params), np.finfo(float).tiny
    if any(abs(level(u)) > 1e-9 * Polynomial(np.abs(level.coef))(abs(u)) + tiny for u in (u_mid, u_end)):
        raise _beyond_double_range(params)
    xi_k, u_k, v_k, _ = _segment_knots(params, u_mid, u_end)
    half = _PiecewiseCubic(xi_k, u_k, v_k)
    half_len = float(xi_k[-1])
    period = 2.0 * half_len

    def evaluator(x: np.ndarray) -> np.ndarray:
        s = np.mod(np.asarray(x, dtype=np.float64), period)
        s = np.where(s > half_len, period - s, s)
        return half(s)

    xi = centred_grid(n_points, period / n_points)
    values = evaluator(xi)
    num, den = _slope_sq_parts(params, (u_mid, u_end))
    # the slope rises toward the crest u_mid on [-P/2, 0)
    side = -np.sign(np.mod(xi + 0.5 * period, period) - 0.5 * period)
    if regularity is Regularity.PEAKED:
        side[n_points // 2] = 1.0  # the corner takes its left-limit slope
    with np.errstate(divide="ignore", invalid="ignore"):
        w = num(values) / den(values)
    if not np.all(np.isfinite(w)):  # a sample rounds onto the singular line
        raise _beyond_double_range(params)
    slopes = side * np.sqrt(np.maximum(w, 0.0))
    return TWProfile(
        params=params,
        xi=xi,
        values=values,
        regularity=regularity,
        period=period,
        slopes=slopes,
        evaluator=evaluator,
    )


# ---------------------------------------------------------------------------
# gridding


def centred_grid(n: int, spacing: float) -> np.ndarray:
    """Every constructor's samples: sample i of ``n`` at ``(i - n//2) * spacing``.

    ``read_profile`` rebuilds a written profile's grid from ``n`` and
    ``spacing`` with this same product, so bit for bit.
    """
    return (np.arange(n) - n // 2) * spacing


def profile_to_field(profile: TWProfile, grid: Grid, center: float = 0.0) -> Field:
    """A solitary profile's evaluator on a periodic grid, summed over its three nearest images."""
    half = 0.5 * grid.length
    xi = np.mod(grid.points - center + half, grid.length) - half
    return Field(grid, sum(profile.evaluator(xi + m * grid.length) for m in (-1, 0, 1)))
