import json

import numpy as np
import pytest
from oracles import constant_field, random_band_limited, with_slopes, zero_field

from mase.cli import main
from mase.errors import ConstantFieldError, NonFiniteFieldError
from mase.evolution import SolverConfig, Termination, Trajectory, evolve
from mase.grid import Field, Grid, State
from mase.storage import write_trajectory
from mase.symmetry import (
    Verdict,
    _detect_axes,
    _reflected,
    _shifted,
    track_axis,
    verify_theorem,
)


@pytest.fixture()
def grid():
    return Grid(512, 40.0)


def periodic_gaussian(grid, center, width=1.5, amplitude=1.0):
    d = np.mod(grid.points - center + grid.length / 2, grid.length) - grid.length / 2
    return Field(grid, amplitude * np.exp(-d * d / (2 * width * width)))


# ---------------------------------------------------------------------------
# reflection


def test_reflect_is_involution(grid, rng):
    u = random_band_limited(grid, rng, amplitude=0.4)
    axes = np.array([0.0, 3.0, 7.77131, 19.999, 33.3])
    once = _reflected(np.tile(u.values, (len(axes), 1)), grid, axes)
    assert np.max(np.abs(_reflected(once, grid, axes) - u.values)) < 1e-10


def test_reflect_fixes_even_fields(grid):
    u = periodic_gaussian(grid, 0.0).values
    assert np.max(np.abs(_reflected(u[None], grid, np.zeros(1)) - u)) < 1e-10


def test_reflect_moves_bump_center(grid):
    x0, lam = 12.0, 7.3
    u = periodic_gaussian(grid, x0).values
    target = periodic_gaussian(grid, np.mod(2 * lam - x0, grid.length)).values
    assert np.max(np.abs(_reflected(u[None], grid, np.array([lam])) - target)) < 1e-6


def test_reflect_axis_modulo_length(grid, rng):
    u = random_band_limited(grid, rng, amplitude=0.4).values
    a, b = _reflected(np.stack([u, u]), grid, np.array([5.0, 5.0 + grid.length]))
    assert np.max(np.abs(a - b)) < 1e-10


# ---------------------------------------------------------------------------
# axis detection (_detect_axes on one-row and several-row stacks)


def test_detect_axis_even_gaussian(grid):
    u = periodic_gaussian(grid, 3.0).values
    (axis,), (asymmetry,), (ambiguous,) = _detect_axes(u[None], grid)
    assert abs(axis - 3.0) < 1e-6
    assert asymmetry < 1e-10
    assert not ambiguous


def test_detect_axis_off_grid_center(grid):
    c0 = 3.0 + 0.37 * grid.spacing
    (axis,), (asymmetry,), _ = _detect_axes(periodic_gaussian(grid, c0).values[None], grid)
    assert abs(axis - c0) < 1e-6
    assert asymmetry < 1e-10


def test_detect_axis_sine_ambiguous(grid):
    u = np.sin(2 * np.pi * grid.points / grid.length)
    (axis,), (asymmetry,), (ambiguous,) = _detect_axes(u[None], grid)
    assert abs(axis - grid.length / 4) < 1e-6  # smallest of the two axes
    assert asymmetry < 1e-10
    assert ambiguous


def test_detect_axis_constant_rejected(grid):
    with pytest.raises(ConstantFieldError):
        _detect_axes(constant_field(grid, 1.0).values[None], grid)
    with pytest.raises(ConstantFieldError):
        _detect_axes(zero_field(grid).values[None], grid)


def test_detect_axis_refuses_a_field_whose_correlation_overflows():
    grid = Grid(64, 10.0)
    u = np.sin(grid.points) + 0.3 * np.cos(2.0 * grid.points + 0.4)
    for scale in (1.7e153, 1e155):
        with pytest.raises(NonFiniteFieldError):
            _detect_axes(scale * u[None], grid)
    # below that the axis and asymmetry are those of the unscaled field
    axes, asymmetry, _ = _detect_axes(np.stack([u, 1e150 * u]), grid)
    assert axes[1] == pytest.approx(axes[0], rel=1e-12)
    assert asymmetry[1] == pytest.approx(asymmetry[0], rel=1e-12)


def test_detect_axis_skewed_profile(grid):
    u = periodic_gaussian(grid, 10.0).values + 0.45 * periodic_gaussian(grid, 14.5).values
    _, (asymmetry,), _ = _detect_axes(u[None], grid)
    assert asymmetry > 0.1
    # brute-force oracle: no grid axis does better than the refined one
    axes = grid.points[::4]
    refl = _reflected(np.tile(u, (len(axes), 1)), grid, axes)
    best = np.min(np.sqrt(np.sum((u - refl) ** 2, axis=-1)))
    dev = np.sqrt(np.sum((u - np.mean(u)) ** 2))
    assert asymmetry <= best / dev + 1e-12


def test_detect_axis_translation_equivariance(grid):
    c0 = 9.193
    shifts = np.array([2.5, 11.113, 31.0])
    axes, _, _ = _detect_axes(_shifted(periodic_gaussian(grid, c0).values, grid, shifts), grid)
    diff = np.abs(np.mod(axes - (c0 + shifts), grid.length))
    assert np.all(np.minimum(diff, grid.length - diff) < 1e-6)


def test_detect_axis_on_constructed_symmetric(grid, rng):
    lam0 = 11.111
    v = random_band_limited(grid, rng, amplitude=0.2).values
    u = v + _reflected(v[None], grid, np.array([lam0]))
    (axis,), (asymmetry,), _ = _detect_axes(u, grid)
    d = np.mod(axis - lam0, grid.length / 2)
    assert min(d, grid.length / 2 - d) < 1e-6
    assert asymmetry < 1e-8


def test_detect_axes_finds_the_axis_of_random_even_fields_and_their_shifts():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(n=st.sampled_from([32, 64, 128, 256, 512]), length=st.floats(1.0, 300.0),
                      axis=st.floats(0.0, 1.0, exclude_max=True), modes=st.integers(1, 12),
                      shifts=st.lists(st.floats(-1.0, 1.0), max_size=3), seed=st.integers(0, 2**32 - 1))
    def check(n, length, axis, modes, shifts, seed):
        # sum_k c_k cos(k (x - a)) over the lowest modes, each |c_k| at least
        # its decay, so no mode vanishes and the field has no second period
        grid = Grid(n, length)
        rng = np.random.default_rng(seed)
        m = np.arange(1, min(modes, n // 8) + 1)
        coef = rng.choice([-1.0, 1.0], m.size) * (1.0 + rng.random(m.size)) * np.exp(-m / m.size)
        a = axis * length
        even = np.cos(np.outer(grid.points - a, 2.0 * np.pi * m / length)) @ coef
        moves = length * np.append(0.0, shifts)
        axes, asymmetry, _ = _detect_axes(_shifted(even, grid, moves), grid)
        d = np.mod(axes - (a + moves), length / 2)
        assert np.all(np.minimum(d, length / 2 - d) < 1e-9 * length)
        assert np.all(asymmetry < 1e-10)

    check()


# ---------------------------------------------------------------------------
# track_axis


def test_track_axis_of_rigid_translation(grid):
    u0 = periodic_gaussian(grid, 8.0, width=2.0, amplitude=0.1)
    speed = 0.7
    times = np.linspace(0.0, 10.0, 21)
    snaps = tuple(State(t, Field(grid, row))
                  for t, row in zip(times, _shifted(u0.values, grid, speed * times)))
    cfg = SolverConfig(t_end=10.0, snapshot_interval=0.5)
    traj = Trajectory(snaps, cfg, Termination.COMPLETED)
    series = track_axis(traj)
    fitted = np.polyfit(series.times, np.unwrap(series.axes, period=grid.length), 1)[0]
    assert abs(fitted - speed) < 1e-6
    assert np.max(series.asymmetry) < 1e-8


def test_track_axis_stationary_field_constant_series(grid):
    u = periodic_gaussian(grid, 13.0, width=2.0, amplitude=0.1)
    snaps = tuple(State(t, u.with_values(u.values)) for t in (0.0, 0.5, 1.0, 1.5))
    cfg = SolverConfig(t_end=1.5, snapshot_interval=0.5)
    traj = Trajectory(snaps, cfg, Termination.COMPLETED)
    series = track_axis(traj)
    assert np.max(np.abs(series.axes - series.axes[0])) < 1e-10


def test_track_axis_needs_three_snapshots(grid):
    cfg = SolverConfig(t_end=1.0, snapshot_interval=0.5)
    u = periodic_gaussian(grid, 5.0)
    traj = Trajectory((State(0.0, u), State(1.0, u.with_values(u.values))), cfg,
                      Termination.COMPLETED)
    with pytest.raises(ValueError):
        track_axis(traj)


def test_track_axis_unwraps_boundary_crossing(grid):
    u0 = periodic_gaussian(grid, 38.0, width=2.0, amplitude=0.1)
    speed = 1.0
    times = np.linspace(0.0, 8.0, 17)
    snaps = tuple(State(t, Field(grid, row))
                  for t, row in zip(times, _shifted(u0.values, grid, speed * times)))
    cfg = SolverConfig(t_end=8.0, snapshot_interval=0.5)
    traj = Trajectory(snaps, cfg, Termination.COMPLETED)
    series = track_axis(traj)
    un = np.unwrap(series.axes, period=grid.length)
    fitted = np.polyfit(series.times, un, 1)[0]
    assert abs(fitted - speed) < 1e-6


# ---------------------------------------------------------------------------
# verify_theorem


def test_verify_theorem_on_constructed_wave(tw_trajectory):
    rep = verify_theorem(tw_trajectory)
    assert rep.verdict is Verdict.TRAVELING_WAVE_CONSISTENT
    assert abs(rep.speed_estimate - 1.2) < 1e-3
    assert rep.travel_error < 1e-3
    assert rep.speed_estimate == rep.lambda_dot


def test_verify_theorem_constant_trajectory_rejected(grid):
    cfg = SolverConfig(t_end=1.0, snapshot_interval=0.25)
    traj = evolve([State(0.0, zero_field(grid))], cfg)[0]
    with pytest.raises(ConstantFieldError):
        verify_theorem(traj)


def test_verify_theorem_contrapositive(gaussian_trajectory):
    # symmetric non-traveling data loses its symmetry immediately
    rep = verify_theorem(gaussian_trajectory)
    assert rep.verdict is Verdict.NOT_SYMMETRIC
    asym = rep.axis_series.asymmetry
    assert asym[0] < 1e-8
    assert np.max(asym) > 1e-2


# ---------------------------------------------------------------------------
# each verdict through symmetry --run, on run directories write_trajectory writes


def _written_run(run_dir, grid, field_at):
    """Snapshots field_at(t, x) at t = 0, 0.5, ..., 3, written as a completed run."""
    times = 0.5 * np.arange(7)
    snaps = tuple(State(float(t), Field(grid, field_at(t, grid.points))) for t in times)
    cfg = SolverConfig(t_end=3.0, snapshot_interval=0.5)
    write_trajectory(run_dir, with_slopes(Trajectory(snaps, cfg, Termination.COMPLETED)), {
        "grid": {"n_points": grid.n_points, "length": grid.length},
        "solver": {"t_end": cfg.t_end, "snapshot_interval": cfg.snapshot_interval}})
    return run_dir


def _sech2(x):
    return 1.0 / np.cosh(x) ** 2


@pytest.mark.parametrize("amplitude, verdict", [
    (0.1, "symmetry_broken"),
    (2e-3, "symmetry_broken"),             # travel error 2.0e-3, above travel_tol 1e-3
    (5e-4, "traveling_wave_consistent"),   # travel error 5.0e-4, below it
])
def test_symmetry_run_on_a_standing_breather(tmp_path, capsys, grid, amplitude, verdict):
    # (1 + a sin t) sech^2(x - 20) stays even about x = 20 and does not travel: above
    # travel_tol it is the symmetric solution that does not travel the verdict exists to flag
    run = _written_run(tmp_path / "run", grid,
                       lambda t, x: (1.0 + amplitude * np.sin(t)) * _sech2(x - 20.0))
    assert main(["symmetry", "--run", str(run)]) == 0
    assert capsys.readouterr().out.startswith(f"verdict: {verdict} ")
    report = json.loads((run / "symmetry.json").read_text())
    assert report["verdict"] == verdict
    assert max(report["asymmetry"]) < 1e-12
    assert abs(report["speed_estimate"]) < 1e-9
    assert report["travel_error"] == pytest.approx(amplitude * np.sin(1.5), rel=1e-6)


# its asymmetry is 4.1607e-4 at every snapshot on the fixture grid (N = 512, L = 40):
# a tolerance on either side of it decides the verdict
@pytest.mark.parametrize("symmetry_tol, verdict", [
    ("1e-6", "not_symmetric"),                # the default
    ("4e-4", "not_symmetric"),
    ("4.5e-4", "traveling_wave_consistent"),
])
def test_symmetry_run_on_a_translated_wave_with_an_odd_part(tmp_path, capsys, grid,
                                                             symmetry_tol, verdict):
    # sech^2 moving at speed 1, plus an odd part that is no shift of it (1e-3 tanh sech^2
    # alone would be one, to first order)
    def field_at(t, x):
        s = x - 15.0 - t
        return _sech2(s) + 1e-3 * np.tanh(2.0 * s) * _sech2(2.0 * s)

    run = _written_run(tmp_path / "run", grid, field_at)
    assert main(["symmetry", "--run", str(run), "--symmetry-tol", symmetry_tol]) == 0
    assert capsys.readouterr().out.startswith(f"verdict: {verdict} ")
    report = json.loads((run / "symmetry.json").read_text())
    assert report["verdict"] == verdict
    # it travels rigidly, so its asymmetry decides
    assert 4e-4 < min(report["asymmetry"]) <= max(report["asymmetry"]) < 4.5e-4
    assert report["travel_error"] < 1e-9
