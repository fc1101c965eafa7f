import numpy as np
import pytest
from oracles import constant_field, random_band_limited, zero_field

from mase.errors import ConstantFieldError, NonFiniteFieldError
from mase.evolution import SolverConfig, Termination, Trajectory, evolve
from mase.grid import Field, Grid, State
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
