from dataclasses import replace

import numpy as np
import pytest
from oracles import linear_phase_speed

from mase import evolution
from mase.errors import BlowUpError
from mase.evolution import (
    SolverConfig,
    Termination,
    Trajectory,
    detect_breaking,
    evolve,
    step,
    _max_slope,
    _rk4,
)
from mase.grid import Field, Grid, State, constant_field, zero_field
from mase.operators import _rhs_spectrum


@pytest.fixture()
def grid():
    return Grid(256, 40.0)


def gaussian(grid, a, w, center=None):
    c = grid.length / 2 if center is None else center
    return Field(grid, a * np.exp(-((grid.points - c) ** 2) / (2 * w * w)))


# ---------------------------------------------------------------------------
# step


def test_step_preserves_equilibria(grid):
    for u in (zero_field(grid), constant_field(grid, 0.3)):
        s = step(State(0.0, u), 0.01)
        assert np.array_equal(s.u.values, u.values)
        assert s.time == 0.01


def test_step_rejects_bad_dt(grid):
    with pytest.raises(ValueError):
        step(State(0.0, zero_field(grid)), 0.0)
    with pytest.raises(ValueError):
        step(State(0.0, zero_field(grid)), -0.1)


def test_step_local_order_five(grid):
    # one full step vs two half steps differ at O(dt^5): halving dt shrinks
    # the difference by ~2^5
    st = State(0.0, gaussian(grid, 0.05, 4.0))

    def gap(dt):
        one = step(st, dt)
        two = step(step(st, dt / 2), dt / 2)
        return np.max(np.abs(one.u.values - two.u.values))

    ratio = gap(0.05) / gap(0.025)
    assert 24.0 < ratio < 40.0


def test_step_signals_blowup(grid):
    # a CFL-violating step on steep data produces non-finite stages
    u = gaussian(grid, 1.0, 0.5)
    with pytest.raises(BlowUpError):
        s = State(0.0, u)
        for _ in range(50):
            s = step(s, 0.2)


def test_evolve_ends_with_blow_up_and_the_last_finite_state(grid):
    # steep data and a CFL number far beyond stability: evolve raises
    # nothing, and the state before the failing step closes the trajectory
    u = gaussian(grid, 1.0, 0.5)
    cfg = SolverConfig(t_end=5.0, snapshot_interval=0.5, cfl=5.0, dt_max=0.2,
                       breaking_slope_threshold=1e300)
    traj = evolve([State(0.0, u)], cfg)[0]
    assert traj.termination is Termination.BLOW_UP
    last = traj.snapshots[-1]
    assert 0.0 < last.time < cfg.t_end
    assert np.all(np.isfinite(last.u.values))
    # the step evolve takes next from there is the one that blows up
    snap_times = cfg.snapshot_interval * np.arange(1, 11)
    t_target = snap_times[snap_times > last.time + 1e-12][0]
    dt = min(evolution._cfl_dt(last.u.values, grid, cfg), t_target - last.time)
    with pytest.raises(BlowUpError):
        step(last, dt)


@pytest.mark.parametrize("n, length", [(128, 40.0), (256, 40.0), (512, 40.0),
                                       (1024, 120.0), (1024, 300.0)])
def test_default_cfl_keeps_frozen_coefficient_modes_in_the_rk4_stability_interval(n, length):
    # A constant state u = a is translation-invariant, so the linearised RHS
    # is diagonal in k: one central difference of _rhs_spectrum along every
    # mode at once gives each eigenvalue.  They are imaginary, and classical
    # RK4 is stable on the imaginary axis up to |dt lambda| = 2 sqrt(2).  The
    # sharp case is a = -1/14, where FLUX'(a) = 0 and dt = cfl h.
    grid = Grid(n, length)
    config = SolverConfig(t_end=1.0, snapshot_interval=1.0)
    eps = 1e-6 * n
    probe = np.ones(n // 2 + 1)
    probe[0] = 0.0
    for a in np.append(np.linspace(-1.0, 1.0, 41), -1.0 / 14.0):
        u = np.full(n, a)
        uh = np.fft.rfft(u)
        lam = (_rhs_spectrum(uh + eps * probe, grid) - _rhs_spectrum(uh - eps * probe, grid)) / (2 * eps)
        z = evolution._cfl_dt(u, grid, config) * lam
        assert np.max(np.abs(z)) <= 2.0 * np.sqrt(2.0)
        assert np.max(np.abs(z.real)) < 1e-12


def test_global_order_four():
    grid = Grid(128, 40.0)
    u0 = gaussian(grid, 0.2, 3.0).values

    def run(dt, T=2.0):
        vh = np.fft.rfft(u0)
        for _ in range(int(round(T / dt))):
            vh = _rk4(vh, grid, dt)
        return np.fft.irfft(vh, grid.n_points)

    ref = run(2.0 / 1600)
    errs = [np.max(np.abs(run(dt) - ref)) for dt in (0.05, 0.025, 0.0125)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.7 < order < 4.3


def test_rhs_and_rk4_on_a_stack_equal_the_rows_bitwise(grid):
    rows = np.stack([gaussian(grid, a, w).values for a, w in ((0.05, 2.0), (0.2, 1.0), (-0.1, 3.0))])
    uh = np.fft.rfft(rows)
    dt = np.array([0.01, 0.003, 0.02])
    rhs = _rhs_spectrum(uh, grid)
    stepped = _rk4(uh, grid, dt[:, None])
    assert rhs.shape == stepped.shape == uh.shape
    for i in range(len(rows)):
        assert np.array_equal(rhs[i], _rhs_spectrum(uh[i], grid))
        assert np.array_equal(stepped[i], _rk4(uh[i], grid, float(dt[i])))


# ---------------------------------------------------------------------------
# evolve


def test_evolve_batch_rows_equal_their_solo_runs(grid):
    # one config, four endings: at cfl=5 the steep row of the blow-up test
    # still overflows (its slope reaches 6.4e3 the step before), a 0.1-high
    # row grows past the 1e4 slope threshold, and a 1e7-high row needs a
    # step below dt_min at once
    cfg = SolverConfig(t_end=5.0, snapshot_interval=0.5, cfl=5.0, dt_max=0.2,
                       breaking_slope_threshold=1e4)
    rows = [gaussian(grid, a, w) for a, w in ((0.02, 2.0), (0.1, 1.0), (1.0, 0.5), (1e7, 2.0))]
    batch = evolve([State(0.0, u) for u in rows], cfg)
    assert [traj.termination for traj in batch] == [
        Termination.COMPLETED, Termination.BREAKING_DETECTED,
        Termination.BLOW_UP, Termination.DT_UNDERFLOW,
    ]
    for u, traj in zip(rows, batch):
        solo = evolve([State(0.0, u)], cfg)[0]
        assert traj.termination is solo.termination
        assert np.array_equal(traj.times(), solo.times())
        for a, b in zip(traj.snapshots, solo.snapshots, strict=True):
            assert np.array_equal(a.u.values, b.u.values)


def test_default_cfl_gaussian_run_matches_a_4x_refined_run(gaussian_trajectory):
    # the default step is set by stability, not accuracy: quartering cfl and
    # dt_max moves no snapshot by more than 1e-7 of max|u| (measured 1.5e-8)
    cfg = gaussian_trajectory.config
    fine_cfg = replace(cfg, cfl=cfg.cfl / 4, dt_max=cfg.dt_max / 4)
    fine = evolve([gaussian_trajectory.snapshots[0]], fine_cfg)[0]
    assert np.array_equal(fine.times(), gaussian_trajectory.times())
    scale = max(s.u.sup_norm() for s in fine.snapshots)
    gap = max(np.max(np.abs(a.u.values - b.u.values))
              for a, b in zip(gaussian_trajectory.snapshots, fine.snapshots, strict=True))
    assert gap <= 1e-7 * scale


def test_evolve_refuses_rows_on_different_grids_or_times(grid):
    cfg = SolverConfig(t_end=1.0, snapshot_interval=0.5)
    other = zero_field(Grid(128, 40.0))
    with pytest.raises(ValueError):
        evolve([State(0.0, zero_field(grid)), State(0.0, other)], cfg)
    with pytest.raises(ValueError):
        evolve([State(0.0, zero_field(grid)), State(0.5, zero_field(grid))], cfg)
    with pytest.raises(ValueError):
        evolve([], cfg)


def test_evolve_zero_data(grid):
    traj = evolve([State(0.0, zero_field(grid))], SolverConfig(t_end=1.0, snapshot_interval=0.25))[0]
    assert traj.termination is Termination.COMPLETED
    assert len(traj.snapshots) == 5
    assert all(s.u.sup_norm() == 0.0 for s in traj.snapshots)
    assert traj.times()[0] == 0.0


def test_evolve_snapshot_times_exact(grid):
    traj = evolve([State(0.0, gaussian(grid, 0.05, 3.0))],
                  SolverConfig(t_end=1.0, snapshot_interval=0.2))[0]
    assert np.allclose(traj.times(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)


def test_evolve_mean_preserved(grid):
    u0 = Field(grid, gaussian(grid, 0.1, 3.0).values + 0.02)
    traj = evolve([State(0.0, u0)], SolverConfig(t_end=2.0, snapshot_interval=0.5))[0]
    means = [s.u.mean() for s in traj.snapshots]
    assert max(abs(m - means[0]) for m in means) < 1e-10 * 2.0


def test_evolve_dt_underflow(grid):
    cfg = SolverConfig(t_end=1.0, snapshot_interval=0.5, dt_min=1.0, dt_max=2.0)
    traj = evolve([State(0.0, gaussian(grid, 0.1, 3.0))], cfg)[0]
    assert traj.termination is Termination.DT_UNDERFLOW


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0, snapshot_interval=0.1)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, snapshot_interval=2.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, snapshot_interval=0.1, dt_min=0.2, dt_max=0.1)


def test_trajectory_requires_increasing_times(grid):
    cfg = SolverConfig(t_end=1.0, snapshot_interval=0.5)
    s = State(0.0, zero_field(grid))
    with pytest.raises(ValueError):
        Trajectory((s, s), cfg, Termination.COMPLETED)


# ---------------------------------------------------------------------------
# dispersion


def test_linear_phase_speed_values():
    assert linear_phase_speed(0.0) == 1.0
    assert linear_phase_speed(1.0) == 0.0
    assert linear_phase_speed(2.0) == pytest.approx(-3.0 / 5.0)


def test_small_mode_travels_at_linear_speed(grid):
    m = 2
    k = 2 * np.pi * m / grid.length
    u0 = Field(grid, 1e-5 * np.cos(k * grid.points))
    traj = evolve([State(0.0, u0)], SolverConfig(t_end=5.0, snapshot_interval=0.5))[0]
    phases = np.unwrap([np.angle(np.fft.rfft(s.u.values)[m]) for s in traj.snapshots])
    slope = np.polyfit(traj.times(), phases, 1)[0]
    measured = -slope / k
    assert abs(measured - linear_phase_speed(k)) < 1e-3


# ---------------------------------------------------------------------------
# breaking detection


def test_detect_breaking_negative_on_zero(grid):
    traj = evolve([State(0.0, zero_field(grid))], SolverConfig(t_end=1.0, snapshot_interval=0.25))[0]
    rep = detect_breaking(traj)
    assert not rep.detected
    assert len(rep.max_slope_history) == len(traj.snapshots)


def test_detect_breaking_negative_on_solitary(tw_trajectory):
    rep = detect_breaking(tw_trajectory)
    assert not rep.detected
    slopes = [v for _, v in rep.max_slope_history]
    assert max(slopes) < 2.0 * slopes[0] + 1e-12


def test_breaking_run_detected(breaking_trajectory):
    traj, s0 = breaking_trajectory
    assert traj.termination is Termination.BREAKING_DETECTED
    rep = detect_breaking(traj)
    assert rep.detected
    assert np.isfinite(rep.t_detect)
    # slope grew 10x while the amplitude stayed put
    t_final = traj.snapshots[-1]
    assert _max_slope(t_final.u.values, traj.grid) >= 10.0 * s0
    sup0 = traj.snapshots[0].u.sup_norm()
    assert abs(t_final.u.sup_norm() - sup0) / sup0 < 0.2
    # boundedness at breaking: sup norm within 2x of initial
    sups = [v for _, v in rep.sup_norm_history]
    i_detect = [t for t, _ in rep.max_slope_history].index(rep.t_detect)
    assert sups[i_detect] <= 2.0 * sups[0]


def test_evolve_breaking_check_trips_where_max_slope_does(monkeypatch):
    # evolve reads the slope off its own transform of the spectral state; it
    # must stop at the first step whose state _max_slope puts over threshold
    grid = Grid(256, 300.0)
    u0 = Field(grid, 0.25 * np.sin(2 * np.pi * grid.points / grid.length))
    threshold = 3.0 * _max_slope(u0.values, grid)
    spectra = []

    def recording(uh, grid, dt):
        spectra.append(_rk4(uh, grid, dt))
        return spectra[-1]

    monkeypatch.setattr(evolution, "_rk4", recording)
    cfg = SolverConfig(t_end=60.0, snapshot_interval=5.0, breaking_slope_threshold=threshold)
    traj = evolve([State(0.0, u0)], cfg)[0]
    assert traj.termination is Termination.BREAKING_DETECTED
    states = [np.fft.irfft(uh[0], grid.n_points) for uh in spectra]
    slopes = [_max_slope(v, grid) for v in states]
    assert max(slopes[:-1]) < threshold <= slopes[-1]
    assert np.array_equal(traj.snapshots[-1].u.values, states[-1])
