import numpy as np
import pytest
from oracles import random_band_limited

from mase.errors import ConstantFieldError
from mase.evolution import SolverConfig, Termination, Trajectory, evolve
from mase.grid import Field, Grid, State, constant_field, zero_field
from mase.symmetry import (
    Verdict,
    detect_axis,
    reflect,
    shift_field,
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
# reflect


def test_reflect_is_involution(grid, rng):
    u = random_band_limited(grid, rng, amplitude=0.4)
    for axis in (0.0, 3.0, 7.77131, 19.999, 33.3):
        rr = reflect(reflect(u, axis), axis)
        assert np.max(np.abs(rr.values - u.values)) < 1e-10


def test_reflect_fixes_even_fields(grid):
    u = periodic_gaussian(grid, 0.0)
    assert np.max(np.abs(reflect(u, 0.0).values - u.values)) < 1e-10


def test_reflect_moves_bump_center(grid):
    x0, lam = 12.0, 7.3
    u = periodic_gaussian(grid, x0)
    target = periodic_gaussian(grid, np.mod(2 * lam - x0, grid.length))
    r = reflect(u, lam)
    assert np.max(np.abs(r.values - target.values)) < 1e-6


def test_reflect_axis_modulo_length(grid, rng):
    u = random_band_limited(grid, rng, amplitude=0.4)
    a = reflect(u, 5.0)
    b = reflect(u, 5.0 + grid.length)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


# ---------------------------------------------------------------------------
# detect_axis


def test_detect_axis_even_gaussian(grid):
    fit = detect_axis(periodic_gaussian(grid, 3.0))
    assert abs(fit.axis - 3.0) < 1e-6
    assert fit.asymmetry < 1e-10
    assert not fit.ambiguous


def test_detect_axis_off_grid_center(grid):
    c0 = 3.0 + 0.37 * grid.spacing
    fit = detect_axis(periodic_gaussian(grid, c0))
    assert abs(fit.axis - c0) < 1e-6
    assert fit.asymmetry < 1e-10


def test_detect_axis_sine_ambiguous(grid):
    u = Field(grid, np.sin(2 * np.pi * grid.points / grid.length))
    fit = detect_axis(u)
    assert abs(fit.axis - grid.length / 4) < 1e-6  # smallest of the two axes
    assert fit.asymmetry < 1e-10
    assert fit.ambiguous


def test_detect_axis_constant_rejected(grid):
    with pytest.raises(ConstantFieldError):
        detect_axis(constant_field(grid, 1.0))
    with pytest.raises(ConstantFieldError):
        detect_axis(zero_field(grid))


def test_detect_axis_skewed_profile(grid):
    u = Field(grid, periodic_gaussian(grid, 10.0).values
              + 0.45 * periodic_gaussian(grid, 14.5).values)
    fit = detect_axis(u)
    assert fit.asymmetry > 0.1
    # brute-force oracle: no grid axis does better than the refined one
    best = min(
        float(np.sqrt(np.sum((u.values - reflect(u, a).values) ** 2)))
        for a in grid.points[::4]
    )
    dev = np.sqrt(np.sum((u.values - np.mean(u.values)) ** 2))
    assert fit.asymmetry <= best / dev + 1e-12


def test_detect_axis_translation_equivariance(grid):
    c0 = 9.193
    u = periodic_gaussian(grid, c0)
    for s in (2.5, 11.113, 31.0):
        fit = detect_axis(shift_field(u, s))
        diff = abs(np.mod(fit.axis - (c0 + s), grid.length))
        assert min(diff, grid.length - diff) < 1e-6


def test_detect_axis_on_constructed_symmetric(grid, rng):
    lam0 = 11.111
    v = random_band_limited(grid, rng, amplitude=0.2)
    u = Field(grid, v.values + reflect(v, lam0).values)
    fit = detect_axis(u)
    d = np.mod(fit.axis - lam0, grid.length / 2)
    assert min(d, grid.length / 2 - d) < 1e-6
    assert fit.asymmetry < 1e-8


# ---------------------------------------------------------------------------
# track_axis


def test_track_axis_of_rigid_translation(grid):
    u0 = periodic_gaussian(grid, 8.0, width=2.0, amplitude=0.1)
    speed = 0.7
    snaps = tuple(
        State(t, shift_field(u0, speed * t)) for t in np.linspace(0.0, 10.0, 21)
    )
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
    snaps = tuple(State(t, shift_field(u0, speed * t)) for t in np.linspace(0.0, 8.0, 17))
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
