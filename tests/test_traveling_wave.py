import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from oracles import (
    COMPOSITE,
    PhasePoint,
    SingularLineError,
    concatenate_segments_unchecked,
    first_integral,
    first_integral_uv,
    integrate_orbit,
    mirror_profile,
    orbit_segment,
    planar_field,
)
from scipy.optimize import brentq

from mase.cli import main, run_tw
from mase.errors import ConfigError, NonexistenceError
from mase.grid import Grid
from mase.traveling_wave import (
    Regularity,
    TWParams,
    TWProfile,
    evaluate_profile,
    force_poly,
    level_polynomial,
    level_roots,
    peaked_composite,
    periodic_profile,
    potential_poly,
    profile_to_field,
    singular_line,
    slope_squared,
    solitary_profile,
    uxx_coeff_poly,
    _real_roots,
)


SOLITARY = TWParams(1.2, 0.0, 0.0)


def center_level_params(fraction=0.5):
    """Level between the center equilibrium and the homoclinic loop."""
    uc = [r for r in _real_roots(force_poly(SOLITARY)) if 1e-3 < r < 0.2][0]
    e_center = float(2.0 * potential_poly(SOLITARY)(uc))
    return TWParams(1.2, 0.0, fraction * e_center), uc


# ---------------------------------------------------------------------------
# planar system


def test_origin_is_equilibrium():
    f = planar_field(PhasePoint(0.0, 0.0), SOLITARY)
    assert f.elevation == 0.0 and f.slope == 0.0


def test_first_component_is_slope():
    f = planar_field(PhasePoint(0.05, 0.0), SOLITARY)
    assert f.elevation == 0.0  # U' = V


def test_planar_field_singular_guard():
    u_s = singular_line(SOLITARY)
    with pytest.raises(SingularLineError):
        planar_field(PhasePoint(u_s, 0.1), SOLITARY)


def test_first_integral_even_in_slope(rng):
    u = rng.uniform(-3, 3, 10000)
    v = rng.uniform(-3, 3, 10000)
    h1 = first_integral_uv(u, v, SOLITARY)
    h2 = first_integral_uv(u, -v, SOLITARY)
    assert np.array_equal(h1, h2)


def test_first_integral_zero_at_origin():
    assert first_integral(PhasePoint(0.0, 0.0), SOLITARY) == 0.0


def test_first_integral_conserved_along_orbit():
    us, vs = integrate_orbit(PhasePoint(0.05, 0.0), SOLITARY, 1e-4, 1000)
    h = first_integral_uv(us, vs, SOLITARY)
    assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) < 1e-8


@pytest.mark.parametrize("c,a", [(1.2, 0.0), (2.5, 0.7), (-3.0, -1.0), (-0.4, 1.3)])
def test_derived_polynomials_equal_paper_literals(c, a):
    # the hand-derived coefficients of the profile equation are the reference
    params = TWParams(c, a)
    assert np.array_equal(uxx_coeff_poly(params).coef, [c + 1.0, 14.0])
    assert np.array_equal(force_poly(params).coef, [a, -(c - 1.0), 3.0, -2.0, 3.0])
    assert np.array_equal(
        potential_poly(params).coef, [0.0, a, -(c - 1.0) / 2.0, 1.0, -0.5, 0.6]
    )
    # crest quotient q of -2G(U) = U^2 q(U) on the homoclinic level A = E = 0
    crest = level_polynomial(TWParams(c)).coef[2:]
    assert np.array_equal(crest, [c - 1.0, -2.0, 1.0, -1.2])


@pytest.mark.parametrize("c,expected", [(-1.0, 0.0), (13.0, -1.0)])
def test_singular_line_values(c, expected):
    assert singular_line(TWParams(c)) == pytest.approx(expected, abs=1e-15)


def test_singular_line_zeroes_coefficient(rng):
    for c in rng.uniform(-4, 4, 50):
        params = TWParams(float(c))
        u_s = singular_line(params)
        assert abs(uxx_coeff_poly(params)(u_s)) < 1e-14


# ---------------------------------------------------------------------------
# turning points


def test_turning_points_roots_resubstitute():
    params, _ = center_level_params()
    roots = level_roots(params)[0]
    assert list(roots) == sorted(roots)
    level = params.energy
    g = potential_poly(params)
    for r in roots:
        assert abs(level - 2.0 * g(r)) < 1e-10


def test_turning_points_include_saddle_tangency():
    # A = 0, E = 0: the origin is an equilibrium sitting exactly on the level
    roots, tangencies = level_roots(SOLITARY)
    assert any(abs(r) < 1e-9 for r in roots)
    # F(0) = 0 exactly: the exact zero comes back as a float
    assert tangencies == (0.0,) and type(tangencies[0]) is float


def test_center_tangency_flagged():
    # the level through the center equilibrium has a doubled root there
    params, uc = center_level_params(fraction=1.0)
    roots, tang = level_roots(params)
    assert any(abs(t - uc) < 1e-6 for t in tang)
    assert any(abs(r - uc) < 1e-6 for r in roots)


def test_level_far_below_every_potential_well_has_one_turning_point():
    # far below every local potential level only the quintic's outer root is
    # left, and one root bounds no periodic orbit
    params = TWParams(1.2, 0.0, -1e6)
    roots, tangent = level_roots(params)
    assert len(roots) == 1 and roots[0] == pytest.approx(-15.0971, abs=1e-4)
    assert tangent == ()
    with pytest.raises(NonexistenceError):
        periodic_profile(params)


def test_params_store_negative_zero_as_zero():
    params = TWParams(-0.0, -0.0, -0.0)
    assert all(math.copysign(1.0, v) == 1.0 for v in
               (params.speed, params.integration_constant, params.energy))
    assert params == TWParams(0.0) and hash(params) == hash(TWParams(0.0))


def test_roots_spread_beyond_double_precision_are_refused():
    # the level's roots near +-1.4e5 sit 41 decades below its outer root
    # -1.5e46; the companion eigenvalues return them as zeros
    with pytest.raises(ConfigError, match="beyond the range"):
        periodic_profile(TWParams(-4.21e138, 2.51e7, 7.78e148))


# ---------------------------------------------------------------------------
# solitary profile


def test_solitary_regularity_and_window(solitary_c12):
    p = solitary_c12
    assert p.regularity is Regularity.SMOOTH_SOLITARY
    assert p.period is None
    assert abs(p.values[0]) < 1e-6 * p.amplitude
    assert abs(p.values[-1]) < 1e-6 * p.amplitude


def test_solitary_crest_is_turning_point(solitary_c12):
    roots = [r for r in level_roots(SOLITARY)[0] if r > 1e-9]
    assert solitary_c12.amplitude == pytest.approx(min(roots), abs=1e-10)
    # crest strictly inside the singular line
    assert min(roots) > singular_line(SOLITARY)


def test_solitary_even_about_crest(solitary_c12):
    vals = solitary_c12.values
    mid = len(vals) // 2
    k = min(mid, len(vals) - mid - 1)
    assert np.max(np.abs(vals[mid + 1:mid + k] - vals[mid - 1:mid - k:-1])) < 1e-8


def test_solitary_first_integral_small(solitary_c12):
    dxi = solitary_c12.xi[1] - solitary_c12.xi[0]
    v_fd = np.gradient(solitary_c12.values, dxi)
    h = first_integral_uv(solitary_c12.values, v_fd, SOLITARY)
    assert np.max(np.abs(h)) < 1e-4


def test_solitary_satisfies_planar_ode(solitary_c12):
    p = solitary_c12
    dxi = p.xi[1] - p.xi[0]
    upp = np.gradient(p.slopes, dxi)
    res = uxx_coeff_poly(SOLITARY)(p.values) * upp + 7.0 * p.slopes**2 + force_poly(SOLITARY)(p.values)
    core = np.abs(p.values) > 0.05 * p.amplitude
    assert np.max(np.abs(res[core])) < 1e-4


@pytest.mark.parametrize("c", [1200.0, 5e12])
def test_fast_solitary_crest_is_the_positive_root_of_q(tmp_path, c):
    # crests beyond |U| = 10: 10.23 at c = 1200
    prof = solitary_profile(c)
    q = np.polynomial.Polynomial(level_polynomial(prof.params).coef[2:])
    crest = max(r.real for r in q.roots() if r.imag == 0.0)
    assert prof.regularity is Regularity.SMOOTH_SOLITARY
    assert prof.amplitude == pytest.approx(crest, rel=1e-12)
    info = run_tw({"speed": c}, tmp_path / "profile")
    assert info["regularity"] == "smooth_solitary"
    assert info["max_residual"] < 1e-4 * c * crest


def test_solitary_saddle_condition_rejects_slow_speeds():
    with pytest.raises(NonexistenceError):
        solitary_profile(0.5)  # (1-c)/(1+c) > 0: origin is a center


def test_solitary_negative_branch_exists():
    # for c < -1 the depression branch carries a smooth solitary wave
    p = solitary_profile(-3.0, branch="negative")
    assert p.regularity is Regularity.SMOOTH_SOLITARY
    assert p.values.min() < -0.9


def test_solitary_positive_branch_cusps_at_singular_line(solitary_c12):
    p = solitary_profile(-3.0, branch="positive")
    assert p.regularity is Regularity.CUSPED
    assert p.values.max() == pytest.approx(singular_line(TWParams(-3.0)), abs=1e-6)
    # cusped and smooth waves share the tail, evaluator, window and slopes
    for prof in (p, solitary_c12):
        x = np.linspace(-1.5 * prof.xi[-1], 1.5 * prof.xi[-1], 601)
        assert np.array_equal(prof.evaluator(x), prof.evaluator(-x))
        assert np.all(np.isfinite(prof.slopes))
        for edge in (prof.values[0], prof.values[-1]):
            assert 0.5e-7 <= abs(edge) / prof.amplitude <= 2e-7


@pytest.mark.parametrize("c,branch", [(-3.0, "positive"), (1.5, "negative")])
def test_cusp_head_length_matches_adaptive_quadrature(c, branch):
    # dxi = dU / sqrt(W) from the cusp U_s down to U_s/2; with U = U_s -+ s^2
    # and D = 14 (U - U_s) the integrand is 2 s^2 sqrt(14/|E - 2G|)
    prof = solitary_profile(c, branch=branch)
    assert prof.regularity is Regularity.CUSPED
    u_s = singular_line(prof.params)
    level = level_polynomial(prof.params)

    def integrand(s):
        return 2.0 * s * s * np.sqrt(14.0 / abs(level(u_s - np.sign(u_s) * s * s)))

    head, err = quad(integrand, 0.0, np.sqrt(0.5 * abs(u_s)), epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-13 * head
    xi_half = brentq(lambda x: prof.evaluator(np.array([x]))[0] - 0.5 * u_s,
                     0.0, prof.xi[-1], xtol=1e-15, rtol=1e-15)
    assert xi_half == pytest.approx(head, rel=1e-12)


# ---------------------------------------------------------------------------
# periodic profile


@pytest.fixture(scope="module")
def periodic():
    params, uc = center_level_params()
    roots = level_roots(params)[0]
    pair = next((a, b) for a, b in zip(roots, roots[1:]) if a < uc < b)
    return periodic_profile(params, pair=pair), params, pair


def test_periodic_attains_turning_points(periodic):
    prof, _, pair = periodic
    assert prof.values.min() == pytest.approx(pair[0], abs=1e-8)
    assert prof.values.max() == pytest.approx(pair[1], abs=1e-8)


def test_periodic_even_about_crest(periodic):
    prof, _, _ = periodic
    vals = prof.values
    mid = len(vals) // 2
    k = min(mid, len(vals) - mid - 1)
    assert np.max(np.abs(vals[mid + 1:mid + k] - vals[mid - 1:mid - k:-1])) < 1e-8


def test_periodic_period_matches_adaptive_quadrature(periodic):
    prof, params, pair = periodic
    u1, u2 = pair
    amp = 0.5 * (u2 - u1)
    um = 0.5 * (u1 + u2)

    def integrand(theta):
        u = um - amp * np.cos(theta)
        return amp * np.sin(theta) / np.sqrt(slope_squared(u, params))

    half, err = quad(integrand, 0.0, np.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 5e-11  # oracle itself resolves well below the 1e-10 target
    assert abs(prof.period - 2.0 * half) < 1e-10


def test_periodic_rejects_bad_level():
    with pytest.raises(NonexistenceError):
        periodic_profile(TWParams(1.2, 0.0, -1e6))


def test_periodic_finds_the_root_next_to_an_exact_zero():
    # E = 0 puts a root at exactly U = 0; the simple root 1.6e-3 below it
    # is the crest (an 8001-point sign scan stepped over it)
    params = TWParams(-5.524128231207979, 0.0053483021325377855, 0.0)
    assert level_roots(params)[0][1] == pytest.approx(-0.0016404, abs=1e-7)
    prof = periodic_profile(params)
    assert prof.values.min() == pytest.approx(-1.26074, abs=1e-5)
    assert prof.values.max() == pytest.approx(-0.0016404, abs=1e-7)
    assert prof.period == pytest.approx(18.4453, abs=1e-4)
    # the crest and trough samples are the roots themselves, where W is
    # zero up to rounding (~1e-16); the missed root gave W down to -1e-6
    assert slope_squared(prof.values, params).min() >= -1e-12


def test_cli_tw_periodic_skips_a_pair_across_the_singular_line(tmp_path, capsys):
    # U_s = -0.0067 lies inside the first pair (-1.026, 0), one coarse probe
    # step from its end; the next pair (0, 0.7594) bounds a smooth orbit
    argv = ["tw", "--speed", "-0.9062071017724973", "-A", "-1.2809563343891979",
            "-E", "0", "--wave", "periodic", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "smooth_periodic, period 6.27353" in capsys.readouterr().out
    sidecar = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert sidecar["period"] == pytest.approx(6.27353, abs=1e-5)


def test_roots_and_periodic_profiles_on_random_levels():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        c=st.floats(-6.0, 4.0), a=st.floats(-2.0, 2.0), e=st.floats(-1.0, 1.0)
    )
    def check(c, a, e):
        params = TWParams(c, a, e)
        level = level_polynomial(params)
        scale = max(1.0, abs(e))
        roots = level_roots(params)[0]
        for r in roots:
            assert abs(level(r)) <= 1e-10 * scale
        # no root is missed: the level keeps one sign between reported roots
        ends = [-10.0, *roots, 10.0]
        for lo, hi in zip(ends, ends[1:]):
            vals = level(np.linspace(lo, hi, 1001)[1:-1])
            vals = vals[np.abs(vals) > 1e-10 * scale]
            assert np.all(vals > 0) or np.all(vals < 0)
        try:
            prof = periodic_profile(params, n_points=256)
        except NonexistenceError:
            return
        # W = U'^2 >= 0 at every sample, up to rounding at the turning points
        assert slope_squared(prof.values, params).min() >= -1e-12

    check()


# ---------------------------------------------------------------------------
# segments and composites


def test_compose_half_with_mirror_reproduces_periodic(periodic):
    prof, params, pair = periodic
    half = orbit_segment(params, pair[1], pair[0], n_samples=2049)
    full = concatenate_segments_unchecked([half, mirror_profile(half)])
    assert float(full.xi[-1]) == pytest.approx(prof.period, abs=1e-9)
    s = np.linspace(0.0, prof.period / 2, 301)
    assert np.max(np.abs(evaluate_profile(prof, s) - evaluate_profile(full, s))) < 1e-10


def test_peaked_wave_matches_the_segment_composition():
    # the shared periodic body against the oracle: rise from the trough to
    # the corner, then its mirror image, with the trough at xi = 0
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(c=st.floats(-6.0, -1.5), a=st.floats(-3.0, -0.2))
    def check(c, a):
        try:
            prof = peaked_composite(c, a)
        except NonexistenceError:
            return
        params = prof.params
        u_s = singular_line(params)
        u_t = min(level_roots(params)[0], key=lambda r: abs(r - prof.values[0]))
        rise = orbit_segment(params, u_t, u_s)
        ref = concatenate_segments_unchecked([rise, mirror_profile(rise)])
        period = float(ref.xi[-1])
        assert prof.period == pytest.approx(period, rel=1e-12)
        x = np.linspace(-0.5 * prof.period, 0.5 * prof.period, 513)
        gap = np.max(np.abs(evaluate_profile(prof, x) - evaluate_profile(ref, x + 0.5 * period)))
        assert gap <= 1e-12 * np.max(np.abs(prof.values))
        corner = np.sqrt(-force_poly(params)(u_s) / 7.0)
        assert prof.slopes[len(prof.xi) // 2] == pytest.approx(corner, rel=1e-12)

    check()


@pytest.fixture(scope="module")
def peaked():
    return peaked_composite(-3.0, -1.0)


def test_peaked_composite_classification(peaked):
    assert peaked.regularity is Regularity.PEAKED
    assert peaked.period is not None
    u_s = singular_line(peaked.params)
    assert peaked.values.max() == pytest.approx(u_s, abs=1e-10)


def test_peaked_composite_is_sampled_half_open(peaked):
    # the trough sits at both ends of the orbit; only the first end is sampled
    n = len(peaked.xi)
    assert n == 4096
    assert peaked.xi[-1] < peaked.xi[0] + peaked.period
    assert peaked.xi[-1] + (peaked.xi[1] - peaked.xi[0]) == pytest.approx(
        peaked.xi[0] + peaked.period, rel=1e-12)
    # [-P/2, P/2) with the corner at xi = 0, as a periodic wave is sampled
    assert peaked.xi[0] == -0.5 * peaked.period
    assert peaked.xi[n // 2] == 0.0
    assert int(np.argmax(peaked.values)) == n // 2
    assert not np.any(np.isnan(peaked.slopes))


def test_peaked_corner_slope(peaked):
    f_s = force_poly(peaked.params)(singular_line(peaked.params))
    expected = np.sqrt(-f_s / 7.0)
    i = int(np.argmax(peaked.values))
    assert peaked.slopes[i - 1] == pytest.approx(expected, rel=1e-2)
    assert peaked.slopes[i + 1] == pytest.approx(-expected, rel=1e-2)


def test_peaked_even_about_corner(peaked):
    vals = peaked.values
    i = int(np.argmax(vals))
    k = min(i, len(vals) - i - 1)
    assert np.max(np.abs(vals[i + 1:i + k] - vals[i - 1:i - k:-1])) < 1e-8


def test_peaked_trough_is_the_largest_level_root_below_the_corner():
    # the trough -11.1667 lies beyond |U| = 10
    prof = peaked_composite(-3.0, -1e4)
    u_s = singular_line(prof.params)
    trough = max(r for r in level_roots(prof.params)[0] if r < u_s - 1e-8)
    assert trough == pytest.approx(-11.1667, abs=1e-4)
    assert prof.values.min() == pytest.approx(trough, rel=1e-12)
    assert prof.values.max() == pytest.approx(u_s, rel=1e-12)


def test_peaked_trough_is_not_the_corner_root_itself():
    # the level root at U_s = 6.6e49 can come out an ulp below U_s; it is the
    # corner, and the trough is the root at -9.3e57 (not a sliver next to U_s)
    prof = peaked_composite(-9.28163896595809e50, -4.5241917240630986e231)
    trough = min(level_roots(prof.params)[0])
    assert trough == pytest.approx(-9.3185e57, rel=1e-4)
    assert prof.values.min() == pytest.approx(trough, rel=1e-12)


def test_peaked_needs_real_corner_slope():
    with pytest.raises(NonexistenceError):
        peaked_composite(-3.0, 0.0)  # F(U_s) > 0 at A = 0


def test_orbit_segment_to_a_cusp_is_rejected():
    # at A = E = 0 and c = -3 the level misses the singular line: a cusp
    params = TWParams(-3.0)
    u_s = singular_line(params)
    assert abs(level_polynomial(params)(u_s)) > 1e-3
    for ends in ((0.5 * u_s, u_s), (u_s, 0.5 * u_s)):
        with pytest.raises(NonexistenceError, match="cusp"):
            orbit_segment(params, *ends)


def test_unchecked_concatenation_allows_mismatch(periodic):
    prof, params, pair = periodic
    half = orbit_segment(params, pair[1], pair[0], n_samples=513)
    other = TWParams(params.speed, params.integration_constant, params.energy * 1.05)
    o_roots = level_roots(other)[0]
    o_pair = next((a, b) for a, b in zip(o_roots, o_roots[1:])
                  if np.all(slope_squared(np.linspace(a, b, 65)[1:-1], other) > 0))
    bad = orbit_segment(other, o_pair[1], o_pair[0], n_samples=513)
    raw = concatenate_segments_unchecked([half, mirror_profile(bad)])
    assert raw.regularity == COMPOSITE
    assert len(raw.xi) == 2 * 513 - 1


# ---------------------------------------------------------------------------
# gridding


def test_profile_to_field_is_periodic_and_even(solitary_c12):
    grid = Grid(512, 130.0)
    f = profile_to_field(solitary_c12, grid, center=65.0)
    assert f.sup_norm() == pytest.approx(solitary_c12.amplitude, rel=1e-6)
    # evenness about the center on the periodic grid
    vals = f.values
    i = int(np.argmax(vals))
    k = 200
    left = vals[(i - np.arange(1, k)) % grid.n_points]
    right = vals[(i + np.arange(1, k)) % grid.n_points]
    assert np.max(np.abs(left - right)) < 1e-10


def test_profile_to_field_periodic_requires_commensurate_grid(peaked):
    grid = Grid(256, 10.0)
    with pytest.raises(ValueError):
        profile_to_field(peaked, grid)
    grid_ok = Grid(256, 2.0 * peaked.period)
    f = profile_to_field(peaked, grid_ok)
    assert f.sup_norm() <= abs(peaked.values.min()) + 1e-9


def test_profile_dataclass_validation():
    with pytest.raises(ValueError):
        TWProfile(SOLITARY, np.array([0.0, 0.0, 1.0]), np.zeros(3), COMPOSITE)
    with pytest.raises(ValueError):
        TWProfile(SOLITARY, np.array([0.0, 1.0]), np.array([np.nan, 0.0]), COMPOSITE)
