import numpy as np
import pytest
from oracles import (
    COMPOSITE,
    periodic_derivative,
    random_band_limited,
    reaction_term,
    reflect_loop,
    reflected,
    reflection_bracket_check,
    zero_field,
)

from mase import weakform
from mase.cli import _steady_report, _unsteady_report
from mase.errors import SupportError
from mase.evolution import SolverConfig, Termination, Trajectory, evolve
from mase.grid import Field, Grid, State
from mase.operators import helmholtz_inverse
from mase.traveling_wave import TWParams, TWProfile
from mase.weakform import (
    SeededUniform,
    TestFunction,
    _steady_residuals,
    random_bumps,
    steady_residual_report,
    unsteady_weak_residual,
)


# ---------------------------------------------------------------------------
# test functions (periodic_derivative and reflected are the bracket oracle's)


def test_bump_vanishes_at_support_ends():
    tf = TestFunction(0.0, 2.0)
    edges = np.array([-2.0, 2.0])
    for order in range(4):
        assert np.max(np.abs(tf.derivative(edges, order))) < 1e-12
    outside = np.array([-2.5, 2.5, 7.0])
    assert np.all(tf.value(outside) == 0.0)


def test_polynomial_bump_derivatives_match_finite_differences():
    tf = TestFunction(1.0, 3.0)
    x = np.linspace(-1.5, 3.5, 41)
    h = 1e-6
    for order in (1, 2, 3):
        fd = (tf.derivative(x + h, order - 1) - tf.derivative(x - h, order - 1)) / (2 * h)
        assert np.max(np.abs(fd - tf.derivative(x, order))) < 1e-5


def test_bump_mass_matches_quadrature():
    tf = TestFunction(0.0, 2.0)
    x = np.linspace(-2.0, 2.0, 20001)
    quad = np.trapezoid(tf.value(x), x)
    assert quad == pytest.approx(tf.mass(), rel=1e-7)


def test_bump_periodic_wrap():
    tf = TestFunction(39.0, 3.0)
    val = periodic_derivative(tf, np.array([0.5]), 0, 40.0)  # 0.5 is 1.5 past the center
    assert val[0] == pytest.approx(tf.value(np.array([37.5]))[0])


def test_reflected_descriptor_round_trip():
    tf = TestFunction(14.0, 3.0)
    twice = reflected(reflected(tf, 10.0, 40.0), 10.0, 40.0)
    assert twice.center == pytest.approx(tf.center, abs=1e-12)
    assert twice.width == tf.width


# ---------------------------------------------------------------------------
# steady residual


def test_steady_residual_zero_profile():
    xi = np.linspace(-20.0, 20.0, 1024, endpoint=False)
    prof = TWProfile(TWParams(1.2), xi, np.zeros_like(xi), COMPOSITE,
                     slopes=np.zeros_like(xi))
    assert _steady_residuals(prof, [TestFunction(0.0, 3.0)]) == [0.0]


def test_steady_residual_certifies_solitary(solitary_c12):
    bumps = [TestFunction(center, 4.0) for center in (0.0, 5.0, -8.0, 12.0)]
    assert max(abs(r) for r in _steady_residuals(solitary_c12, bumps)) < 1e-6


def test_steady_residual_speed_sensitivity(solitary_c12):
    p = solitary_c12
    bumps = [TestFunction(c, 4.0) for c in (3.0, 6.0, -5.0, 10.0)]
    base = max(abs(r) for r in _steady_residuals(p, bumps))
    perturbed = TWProfile(TWParams(1.3, 0.0, 0.0), p.xi, p.values, p.regularity,
                          p.period, p.slopes, p.evaluator)
    pert = max(abs(r) for r in _steady_residuals(perturbed, bumps))
    assert pert >= 10.0 * base


def test_steady_residual_support_check(solitary_c12):
    span = solitary_c12.xi[-1]
    with pytest.raises(SupportError):
        _steady_residuals(solitary_c12, [TestFunction(span, 5.0)])


def test_steady_residual_sampling_check(solitary_c12):
    h = solitary_c12.xi[1] - solitary_c12.xi[0]
    with pytest.raises(ValueError):
        _steady_residuals(solitary_c12, [TestFunction(0.0, 10.0 * h)])


def test_steady_residual_linear_in_test_function(solitary_c12):
    # residual functional is linear: direct superposition at quadrature level
    p = solitary_c12
    from mase.weakform import _profile_grid, _profile_reaction

    grid = _profile_grid(p)
    r = _profile_reaction(p, grid)
    pr = helmholtz_inverse(Field(grid, r)).values
    c = p.params.speed
    core = (c + 1.0) * p.values + 7.0 * p.values**2 - pr

    f1 = TestFunction(2.0, 3.0)
    f2 = TestFunction(-4.0, 5.0)
    i1 = grid.spacing * np.sum(core * f1.derivative(p.xi, 1))
    i2 = grid.spacing * np.sum(core * f2.derivative(p.xi, 1))
    both = grid.spacing * np.sum(core * (f1.derivative(p.xi, 1) + f2.derivative(p.xi, 1)))
    assert both == pytest.approx(i1 + i2, abs=1e-14)
    assert grid.spacing * np.sum(core * (2.0 * f1.derivative(p.xi, 1))) == pytest.approx(2 * i1, abs=1e-14)


def test_steady_residual_report(solitary_c12):
    bumps = [TestFunction(c, 4.0) for c in (0.0, 5.0)]
    rep = steady_residual_report(solitary_c12, bumps)
    assert len(rep.per_test_function) == 2
    assert rep.normalization > 0
    assert rep.max_residual() < 1e-6


# ---------------------------------------------------------------------------
# unsteady residual


@pytest.fixture(scope="module")
def smooth_run():
    grid = Grid(512, 40.0)
    x = grid.points
    u0 = Field(grid, 0.05 * np.exp(-((x - 20.0) ** 2) / 8.0))
    cfg = SolverConfig(t_end=3.0, snapshot_interval=0.01)
    return evolve([State(0.0, u0)], cfg)[0]


def test_unsteady_residual_zero_trajectory():
    grid = Grid(256, 40.0)
    cfg = SolverConfig(t_end=2.0, snapshot_interval=0.05)
    traj = evolve([State(0.0, zero_field(grid))], cfg)[0]
    res = unsteady_weak_residual(traj, [TestFunction(20.0, 5.0)], TestFunction(1.0, 0.5))[0]
    assert res == 0.0


def test_unsteady_residual_small_on_resolved_run(smooth_run):
    phi = TestFunction(22.0, 5.0)
    rho = TestFunction(1.5, 1.0)
    res = unsteady_weak_residual(smooth_run, [phi], rho)[0]
    assert abs(res) < 1e-4


def test_unsteady_residual_detects_corruption(smooth_run):
    phi = TestFunction(22.0, 5.0)
    rho = TestFunction(1.5, 1.0)
    clean = abs(unsteady_weak_residual(smooth_run, [phi], rho)[0])
    snaps = list(smooth_run.snapshots)
    mid = len(snaps) // 2
    bad = State(snaps[mid].time, snaps[mid].u.with_values(1.1 * snaps[mid].u.values))
    corrupted = Trajectory(tuple(snaps[:mid] + [bad] + snaps[mid + 1:]),
                           smooth_run.config, Termination.COMPLETED)
    dirty = abs(unsteady_weak_residual(corrupted, [phi], rho)[0])
    assert dirty >= 10.0 * clean


def test_unsteady_residual_support_checks(smooth_run):
    with pytest.raises(SupportError):
        unsteady_weak_residual(smooth_run, [TestFunction(39.0, 5.0)], TestFunction(1.5, 1.0))
    with pytest.raises(SupportError):
        unsteady_weak_residual(smooth_run, [TestFunction(20.0, 5.0)], TestFunction(0.1, 0.5))


def test_unsteady_residual_stable_under_rho_narrowing(smooth_run):
    # narrowing the temporal bump toward a time slice keeps the residual
    # small: the single-narrow-rho stand-in for the delta-sequence argument
    phi = TestFunction(22.0, 5.0)
    vals = [abs(unsteady_weak_residual(smooth_run, [phi], TestFunction(1.5, w))[0])
            for w in (1.2, 0.6, 0.3)]
    assert all(v < 1e-4 for v in vals)


def test_unsteady_residual_quadrature_rate():
    # synthetic non-solution data: the residual converges at the trapezoid
    # rate in the snapshot cadence
    grid = Grid(256, 40.0)
    x = grid.points
    phi = TestFunction(20.0, 5.0)

    def synthetic(dt):
        times = np.arange(0.0, 3.0 + dt / 2, dt)
        snaps = tuple(
            State(t, Field(grid, 0.05 * np.sin(2 * np.pi * (x - 0.41 * t) / grid.length)))
            for t in times
        )
        cfg = SolverConfig(t_end=3.0, snapshot_interval=dt)
        return Trajectory(snaps, cfg, Termination.COMPLETED)

    rho = TestFunction(1.5, 1.2)
    vals = [unsteady_weak_residual(synthetic(dt), [phi], rho)[0] for dt in (0.1, 0.05, 0.025)]
    ref = unsteady_weak_residual(synthetic(0.003125), [phi], rho)[0]
    errs = [abs(v - ref) for v in vals]
    order = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    # at least the trapezoid rate; bumps whose low derivatives vanish at the
    # support boundary superconverge (observed ~4)
    assert order > 1.7
    assert order2 > 1.7


# ---------------------------------------------------------------------------
# reflection bracket


def test_reflection_bracket_random_triples(grid512, rng):
    for _ in range(10):
        u = random_band_limited(grid512, rng, amplitude=0.05)
        lam = float(rng.uniform(0.0, grid512.length))
        phi = TestFunction(float(rng.uniform(5.0, 35.0)), float(rng.uniform(2.0, 5.0)))
        lhs, rhs = reflection_bracket_check(u, lam, phi)
        assert abs(lhs + rhs) < 1e-8 * max(1.0, abs(lhs))


def test_reflection_bracket_symmetric_field(grid512, rng):
    lam = 10.0
    v = random_band_limited(grid512, rng, amplitude=0.05)
    u = Field(grid512, v.values + reflect_loop(v, lam).values)
    phi = TestFunction(14.0, 3.0)
    lhs, rhs = reflection_bracket_check(u, lam, phi)
    assert abs(lhs + rhs) < 1e-10 * max(1.0, abs(lhs))
    p = helmholtz_inverse(reaction_term(u))
    assert np.max(np.abs(p.values - reflect_loop(p, lam).values)) < 1e-10


def test_reflection_bracket_double_reflection_identical(grid512, rng):
    u = random_band_limited(grid512, rng, amplitude=0.05)
    lam = 13.0
    phi = TestFunction(17.0, 3.0)
    phi2 = reflected(reflected(phi, lam, grid512.length), lam, grid512.length)
    a = reflection_bracket_check(u, lam, phi)
    b = reflection_bracket_check(u, lam, phi2)
    assert abs(a[0] - b[0]) < 1e-12
    assert abs(a[1] - b[1]) < 1e-12


def test_reflection_bracket_rejects_wide_bump(grid512, rng):
    u = random_band_limited(grid512, rng, amplitude=0.05)
    with pytest.raises(SupportError):
        reflection_bracket_check(u, 5.0, TestFunction(10.0, 25.0))


def test_random_bumps_supports_inside(rng):
    bumps = random_bumps(rng, 20, (5.0, 35.0), (2.0, 4.0))
    for b in bumps:
        lo, hi = b.support
        assert lo >= 5.0 and hi <= 35.0


# ---------------------------------------------------------------------------
# the bump draws: numpy's default_rng(seed).uniform stream, drawn without numpy.random


def _bits(bumps):
    return [(b.width.hex(), b.center.hex()) for b in bumps]


def test_seeded_uniform_draws_numpy_default_rng_uniform_bitwise(
        solitary_c12, gaussian_trajectory, monkeypatch):
    calls = []  # the (n, domain, width_range) the tw and simulate reports pass to random_bumps

    def recording(rng, n, domain, width_range):
        calls.append((n, domain, width_range))
        return random_bumps(rng, n, domain, width_range)

    monkeypatch.setattr(weakform, "random_bumps", recording)
    _steady_report(solitary_c12, 0)
    _unsteady_report(gaussian_trajectory, 0)
    assert len(calls) == 2
    # 2**32 and 2**64 + 12345 are seeds of two and three 32-bit entropy words
    for seed in [*range(1000), 2**32 - 1, 2**32, 2**64 + 12345]:
        ours, numpys = SeededUniform(seed), np.random.default_rng(seed)
        for n, domain, width_range in calls:  # one stream, drawn in sequence
            assert (_bits(random_bumps(ours, n, domain, width_range))
                    == _bits(random_bumps(numpys, n, domain, width_range))), seed
        assert ([ours.uniform(-1.0, 3.0).hex() for _ in range(4)]
                == [numpys.uniform(-1.0, 3.0).hex() for _ in range(4)]), seed


def test_seeded_uniform_refuses_a_negative_seed_as_numpy_does():
    for make in (SeededUniform, np.random.default_rng):
        with pytest.raises(ValueError):
            make(-1)
