from dataclasses import replace

import numpy as np
import pytest
from oracles import constant_field, linear_phase_speed, rhs_spectrum, rk4_step, zero_field

from mase import evolution
from mase.evolution import (
    SolverConfig,
    Termination,
    Trajectory,
    detect_breaking,
    evolve,
    _max_slope,
    _rk4,
)
from mase.grid import Field, Grid, State
from mase.operators import _rhs_tables
from mase.storage import read_columns_csv, write_trajectory


@pytest.fixture()
def grid():
    return Grid(256, 40.0)


def gaussian(grid, a, w, center=None):
    c = grid.length / 2 if center is None else center
    return Field(grid, a * np.exp(-((grid.points - c) ** 2) / (2 * w * w)))


# ---------------------------------------------------------------------------
# one RK4(3)IP step (_rk4)


def rk4_values(values, grid, dt):
    return np.fft.irfft(rk4_step(np.fft.rfft(values), grid, dt)[0], grid.n_points)


def test_step_preserves_equilibria(grid):
    for u in (zero_field(grid), constant_field(grid, 0.3)):
        assert np.array_equal(rk4_values(u.values, grid, 0.01), u.values)


def test_step_local_order_five(grid):
    # one full step vs two half steps differ at O(dt^5): halving dt shrinks
    # the difference by ~2^5
    u = gaussian(grid, 0.05, 4.0).values

    def gap(dt):
        one = rk4_values(u, grid, dt)
        two = rk4_values(rk4_values(u, grid, dt / 2), grid, dt / 2)
        return np.max(np.abs(one - two))

    ratio = gap(0.05) / gap(0.025)
    assert 24.0 < ratio < 40.0


def test_step_signals_blowup(grid):
    # steps far beyond the stability cap on steep data end in non-finite
    # entries, which _rk4 returns unchecked; evolve's errstate silences the
    # overflow, as this one does
    uh = np.fft.rfft(gaussian(grid, 1.0, 0.5).values)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            uh = rk4_step(uh, grid, 0.2)[0]
    assert not np.all(np.isfinite(uh))


def test_evolve_ends_with_blow_up_and_the_last_finite_state(grid, monkeypatch):
    # with the error control off, steep data under a cap far beyond
    # stability (cfl = 5) overflow: evolve raises nothing, and the state
    # before the failing step closes the trajectory
    monkeypatch.setattr(evolution, "TOL", np.inf)
    calls = []

    def recording(uh, nl, grid, dt):
        out = _rk4(uh, nl, grid, dt)
        calls.append((uh, out[0]))
        return out

    monkeypatch.setattr(evolution, "_rk4", recording)
    u = gaussian(grid, 1.0, 0.5)
    cfg = SolverConfig(t_end=5.0, snapshot_interval=0.5, cfl=5.0, dt_max=0.2,
                       breaking_slope_threshold=1e300)
    traj = evolve([State(0.0, u)], cfg)[0]
    assert traj.termination is Termination.BLOW_UP
    last = traj.snapshots[-1]
    assert 0.0 < last.time < cfg.t_end
    assert np.all(np.isfinite(last.u.values))
    # the step evolve takes next from there is the one that blows up
    start, new = calls[-1]
    assert np.array_equal(np.fft.irfft(start[0], grid.n_points), last.u.values)
    assert not np.all(np.isfinite(new))
    assert all(np.all(np.isfinite(out)) for _, out in calls[:-1])


@pytest.mark.parametrize("n, length", [(128, 40.0), (256, 40.0), (512, 40.0),
                                       (1024, 120.0), (1024, 300.0)])
def test_default_cfl_keeps_frozen_coefficient_modes_in_the_rk4_stability_interval(n, length):
    # The step takes the linear part lin * uh exactly and RK4 acts on the
    # rest.  A constant state u = a is translation-invariant, so that rest,
    # linearised, is diagonal in k: one central difference of rhs_spectrum
    # along every mode at once, minus lin, gives each eigenvalue.  They are
    # imaginary, and classical RK4 is stable on the imaginary axis up to
    # |dt lambda| = 2 sqrt(2).  The largest step is min(dt_max, cfl h / 14|a|),
    # and the kept band ends near 2 pi / 3h, so |dt lambda| is about
    # cfl 2 pi / 3 + O(h).
    grid = Grid(n, length)
    config = SolverConfig(t_end=1.0, snapshot_interval=1.0)
    lin = _rhs_tables(n, length)["lin"]
    eps = 1e-6 * n
    probe = np.ones(n // 2 + 1)
    probe[0] = 0.0
    for a in np.append(np.linspace(-1.0, 1.0, 41), -1.0 / 14.0):
        uh = np.fft.rfft(np.full(n, a))
        lam = (rhs_spectrum(uh + eps * probe, grid) - rhs_spectrum(uh - eps * probe, grid)) / (2 * eps)
        with np.errstate(divide="ignore"):
            dt = min(config.dt_max, config.cfl * grid.spacing / (14.0 * abs(a)))
        z = dt * (lam - lin)
        assert np.max(np.abs(z)) <= 2.0 * np.sqrt(2.0)
        assert np.max(np.abs(z.real)) < 1e-12


def test_global_order_four():
    grid = Grid(128, 40.0)
    u0 = gaussian(grid, 0.2, 3.0).values

    def run(dt, T=2.0):
        vh = np.fft.rfft(u0)
        for _ in range(int(round(T / dt))):
            vh = rk4_step(vh, grid, dt)[0]
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
    rhs = rhs_spectrum(uh, grid)
    stepped = rk4_step(uh, grid, dt[:, None])
    assert rhs.shape == stepped[0].shape == uh.shape
    assert stepped[2].shape == dt.shape
    for i in range(len(rows)):
        assert np.array_equal(rhs[i], rhs_spectrum(uh[i], grid))
        for part, solo in zip(stepped, rk4_step(uh[i], grid, float(dt[i])), strict=True):
            assert np.array_equal(part[i], solo)


# ---------------------------------------------------------------------------
# evolve


def assert_rows_equal_solo_runs(batch, rows, cfg):
    for u, traj in zip(rows, batch, strict=True):
        solo = evolve([State(0.0, u)], cfg)[0]
        assert traj.termination is solo.termination
        assert traj.steps == solo.steps
        assert np.array_equal(traj.times(), solo.times())
        for a, b in zip(traj.snapshots, solo.snapshots, strict=True):
            assert np.array_equal(a.u.values, b.u.values)


def test_evolve_batch_rows_equal_their_solo_runs(grid):
    # one config, four endings: a long sine wave steepens past the slope
    # threshold, a 1e80-high row overflows in its first step, and a
    # 1e300-high row is capped below dt_min at once
    cfg = SolverConfig(t_end=5.0, snapshot_interval=0.5, dt_min=1e-300,
                       breaking_slope_threshold=0.5)
    sine = Field(grid, 0.5 * np.sin(2 * np.pi * grid.points / grid.length))
    rows = [gaussian(grid, 0.02, 2.0), sine, gaussian(grid, 1e80, 2.0), gaussian(grid, 1e300, 2.0)]
    batch = evolve([State(0.0, u) for u in rows], cfg)
    assert [traj.termination for traj in batch] == [
        Termination.COMPLETED, Termination.BREAKING_DETECTED,
        Termination.BLOW_UP, Termination.DT_UNDERFLOW,
    ]
    assert 0.0 < batch[1].times()[-1] < cfg.t_end
    assert_rows_equal_solo_runs(batch, rows, cfg)


def test_a_row_that_rejects_a_step_leaves_the_others_as_their_solo_runs(grid, monkeypatch):
    # a 20-high narrow bump rejects its first steps while a low one accepts
    # its own in the same call
    errors = []

    def recording(uh, nl, grid, dt):
        out = _rk4(uh, nl, grid, dt)
        errors.append(out[2])
        return out

    monkeypatch.setattr(evolution, "_rk4", recording)
    cfg = SolverConfig(t_end=3e-5, snapshot_interval=1e-5)
    rows = [gaussian(grid, 0.05, 2.0), gaussian(grid, 20.0, 0.5)]
    batch = evolve([State(0.0, u) for u in rows], cfg)
    assert any(len(err) == 2 and err[0] <= evolution.TOL < err[1] for err in errors)
    assert batch[0].steps.rejected == 0 < batch[1].steps.rejected
    assert [traj.termination for traj in batch] == [Termination.COMPLETED] * 2
    assert_rows_equal_solo_runs(batch, rows, cfg)


@pytest.fixture(scope="module")
def gaussian_refined(gaussian_trajectory):
    """The canonical Gaussian run with a quarter of the default cap and dt_max.

    Those bounds, not TOL, set its steps: at TOL = 1e-9 it is bitwise the same.
    """
    cfg = gaussian_trajectory.config
    fine_cfg = replace(cfg, cfl=cfg.cfl / 4, dt_max=cfg.dt_max / 4)
    return evolve([gaussian_trajectory.snapshots[0]], fine_cfg)[0]


def gap_to(traj, ref):
    """Largest |u - u_ref| over the snapshots, relative to max|u_ref|."""
    assert np.array_equal(traj.times(), ref.times())
    scale = max(s.u.sup_norm() for s in ref.snapshots)
    return max(np.max(np.abs(a.u.values - b.u.values))
               for a, b in zip(traj.snapshots, ref.snapshots, strict=True)) / scale


def test_default_cfl_gaussian_run_matches_a_4x_refined_run(gaussian_trajectory, gaussian_refined):
    # TOL sets the default step on this run: quartering cfl and dt_max moves
    # no snapshot by more than 1e-7 of max|u| (measured 7.3e-8)
    assert gap_to(gaussian_trajectory, gaussian_refined) <= 1e-7


def test_a_tenth_of_the_tolerance_brings_the_gaussian_run_closer(gaussian_trajectory,
                                                                  gaussian_refined, monkeypatch):
    # the error estimate steers the run: at TOL = 1e-9 its gap to the refined
    # run falls 10.7 times (7.3e-8 to 6.8e-9 of max|u|)
    monkeypatch.setattr(evolution, "TOL", 1e-9)
    tight = evolve([gaussian_trajectory.snapshots[0]], gaussian_trajectory.config)[0]
    assert gap_to(tight, gaussian_refined) * 5.0 <= gap_to(gaussian_trajectory, gaussian_refined)


def test_the_error_estimate_of_one_step_scales_as_dt_to_the_fourth():
    # dt/10 (k4 - k5) is the gap to the third-order solution: halving dt
    # divides it by 2^4 (measured 16.0)
    grid = Grid(512, 40.0)
    uh = np.fft.rfft(gaussian(grid, 0.1, 2.0).values)
    errs = [rk4_step(uh, grid, dt)[2] for dt in (0.04, 0.02, 0.01, 0.005)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_evolve_refuses_rows_on_different_grids_or_times(grid):
    cfg = SolverConfig(t_end=1.0, snapshot_interval=0.5)
    other = zero_field(Grid(128, 40.0))
    with pytest.raises(ValueError):
        evolve([State(0.0, zero_field(grid)), State(0.0, other)], cfg)
    with pytest.raises(ValueError):
        evolve([State(0.0, zero_field(grid)), State(0.5, zero_field(grid))], cfg)
    with pytest.raises(ValueError):
        evolve([State(cfg.t_end, zero_field(grid))], cfg)
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
    assert traj.times().tolist() == scheduled_times(traj.config)


def scheduled_times(cfg):
    """0, then every k * snapshot_interval strictly before t_end, then t_end."""
    times, k = [0.0], 1
    while k * cfg.snapshot_interval < cfg.t_end:
        times.append(k * cfg.snapshot_interval)
        k += 1
    return times + [cfg.t_end]


@pytest.mark.parametrize("t_end, interval, times", [
    (1.5, 1.0, [0.0, 1.0, 1.5]),  # t_end halfway between two multiples of the interval
    (1e-13, 1e-13, [0.0, 1e-13]),  # a run shorter than a fixed 1e-12 time tolerance
    (3e-12, 1e-12, [0.0, 1e-12, 2e-12, 3e-12]),  # snapshots 1e-12 apart
])
def test_evolve_reaches_t_end_with_every_scheduled_snapshot(grid, t_end, interval, times):
    cfg = SolverConfig(t_end=t_end, snapshot_interval=interval)
    traj = evolve([State(0.0, gaussian(grid, 0.05, 2.0))], cfg)[0]
    assert traj.termination is Termination.COMPLETED
    assert traj.times().tolist() == times == scheduled_times(cfg)
    assert traj.steps.accepted >= len(times) - 1


def test_every_snapshot_of_a_batch_with_different_steps_is_a_scheduled_time(grid):
    # 3 * 0.1 and 6 * 0.1 are not the doubles nearest 0.3 and 0.6; each row
    # steps onto them from its own last step
    cfg = SolverConfig(t_end=0.7, snapshot_interval=0.1)
    rows = [gaussian(grid, 0.02, 2.0), gaussian(grid, 0.3, 1.0), gaussian(grid, 2.0, 1.0)]
    batch = evolve([State(0.0, u) for u in rows], cfg)
    assert len({traj.steps.accepted for traj in batch}) == len(rows)
    for traj in batch:
        assert traj.termination is Termination.COMPLETED
        assert traj.times().tolist() == scheduled_times(cfg)
    assert_rows_equal_solo_runs(batch, rows, cfg)


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
    assert len(traj.max_slopes) == len(traj.snapshots)


def test_detect_breaking_negative_on_solitary(tw_trajectory):
    rep = detect_breaking(tw_trajectory)
    assert not rep.detected
    slopes = tw_trajectory.max_slopes
    assert max(slopes) < 2.0 * slopes[0] + 1e-12


def test_breaking_run_detected(breaking_trajectory, tmp_path):
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
    # boundedness at breaking: sup norm within 2x of initial, in the run's diagnostics.csv
    write_trajectory(tmp_path, traj, {})
    diagnostics = read_columns_csv(tmp_path / "diagnostics.csv")
    i_detect = traj.times().tolist().index(rep.t_detect)
    assert diagnostics["max_slope"][i_detect] >= traj.config.breaking_slope_threshold
    sups = diagnostics["sup_norm"]
    assert sups[i_detect] <= 2.0 * sups[0]


def test_evolve_breaking_check_trips_where_max_slope_does(monkeypatch):
    # evolve reads the slope off its own transform of the spectral state; it
    # must stop at the first step whose state _max_slope puts over threshold
    grid = Grid(256, 300.0)
    u0 = Field(grid, 0.25 * np.sin(2 * np.pi * grid.points / grid.length))
    threshold = 3.0 * _max_slope(u0.values, grid)
    spectra = []

    def recording(uh, nl, grid, dt):
        out = _rk4(uh, nl, grid, dt)
        if np.all(out[2] <= evolution.TOL):  # an accepted step
            spectra.append(out[0])
        return out

    monkeypatch.setattr(evolution, "_rk4", recording)
    cfg = SolverConfig(t_end=60.0, snapshot_interval=5.0, breaking_slope_threshold=threshold)
    traj = evolve([State(0.0, u0)], cfg)[0]
    assert traj.termination is Termination.BREAKING_DETECTED
    states = [np.fft.irfft(uh[0], grid.n_points) for uh in spectra]
    slopes = [_max_slope(v, grid) for v in states]
    assert max(slopes[:-1]) < threshold <= slopes[-1]
    assert np.array_equal(traj.snapshots[-1].u.values, states[-1])
