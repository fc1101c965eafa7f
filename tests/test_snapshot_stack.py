"""The stacked trajectory analyses equal their per-snapshot loops bitwise.

The package analyses a trajectory as (b, n) stacks of snapshot rows
(mase.evolution._value_blocks); tests/oracles.py keeps the loops they
replaced, one transform chain per snapshot or bump.  Every comparison here
is exact: the stacks may save transform calls, never change a bit.
"""

import json

import numpy as np
import pytest
from oracles import (
    constant_field,
    detect_axis_loop,
    max_slope_loop,
    random_band_limited,
    reflect_loop,
    shift_field_loop,
    steady_residual_loop,
    track_axis_loop,
    travel_error_loop,
    unsteady_residual_loop,
)

import mase.traveling_wave as tw
from mase.cli import _unsteady_report, main, run_tw
from mase.errors import ConstantFieldError
from mase.evolution import (
    SolverConfig,
    Termination,
    Trajectory,
    _block_rows,
    _series,
    _sup_norms,
    detect_breaking,
    evolve,
)
from mase.grid import Field, Grid, State
from mase.scenarios import build_initial_field, scenario_from_dict
from mase.storage import snapshot_filename, write_columns_csv, write_trajectory
from mase.symmetry import _detect_axes, _reflected, _shifted, track_axis, verify_theorem
from mase.traveling_wave import TWParams, level_roots, periodic_profile
from mase.weakform import TestFunction, _steady_residuals, steady_residual_report, unsteady_weak_residual

# the acceptance-12 scenario
ACCEPTANCE_12 = {
    "grid": {"n_points": 128, "length": 40.0},
    "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
    "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
    "analysis": {"symmetry": True, "weakform": True, "breaking": True},
}


def same(a, b) -> bool:
    """Bitwise equality of two float sequences (signed zeros included)."""
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def gaussian(grid, center, width=1.5, amplitude=0.1):
    d = np.mod(grid.points - center + grid.length / 2, grid.length) - grid.length / 2
    return amplitude * np.exp(-d * d / (2 * width * width))


def detect_rows(fields) -> list[tuple[float, float, bool]]:
    """(axis, asymmetry, ambiguous) of every field, detected as one stack."""
    axes, asymmetry, ambiguous = _detect_axes(np.stack([u.values for u in fields]), fields[0].grid)
    return list(zip(axes.tolist(), asymmetry.tolist(), ambiguous.tolist()))


def trajectory(snapshots) -> Trajectory:
    times = [s.time for s in snapshots]
    cfg = SolverConfig(t_end=times[-1], snapshot_interval=times[1] - times[0])
    return Trajectory(tuple(snapshots), cfg, Termination.COMPLETED)


def moving(values, grid, speed, times) -> Trajectory:
    """Rigid translation of ``values`` at ``speed``, plus a slow amplitude drift."""
    u0 = Field(grid, values)
    return trajectory([State(t, u0.with_values(shift_field_loop(u0, speed * t).values
                                               * (1.0 + 0.01 * t)))
                       for t in times])


@pytest.fixture(scope="module")
def acceptance_12():
    scenario = scenario_from_dict(ACCEPTANCE_12)
    return evolve([State(0.0, build_initial_field(scenario))], scenario.solver)[0]


def check_symmetry(traj: Trajectory) -> None:
    rep = verify_theorem(traj)
    axes, asym = track_axis_loop(traj.snapshots)
    assert same(rep.axis_series.axes, axes)
    assert same(rep.axis_series.asymmetry, asym)
    assert same([rep.travel_error], [travel_error_loop(traj.snapshots, rep.speed_estimate)])
    series = track_axis(traj)
    assert same(series.axes, axes) and same(series.asymmetry, asym)


def check_breaking(traj: Trajectory, tmp_path) -> None:
    rep = detect_breaking(traj)
    slopes = [max_slope_loop(s.u) for s in traj.snapshots]
    sups = [s.u.sup_norm() for s in traj.snapshots]
    assert same(traj.max_slopes, slopes)
    assert same(_series(traj.snapshots, _sup_norms), sups)
    # the series breaking is decided on, as the run's diagnostics.csv records them
    manifest = write_trajectory(tmp_path / "breaking", traj, {"solver": {}})
    ref = write_columns_csv(tmp_path / "ref.csv", ["t", "mean", "sup_norm", "max_slope"],
                            [[s.time for s in traj.snapshots], [s.u.mean() for s in traj.snapshots],
                             sups, slopes])
    assert {e["path"]: e["sha256"] for e in manifest["outputs"]}["diagnostics.csv"] == ref
    hits = [s.time for s, slope, sup in zip(traj.snapshots, slopes, sups)
            if slope >= traj.config.breaking_slope_threshold and sup <= 2.0 * max(sups[0], 1e-300)]
    assert rep.detected == bool(hits)
    if hits:
        assert rep.t_detect == hits[0]


def test_acceptance_12_run(acceptance_12, tmp_path):
    traj = acceptance_12
    check_symmetry(traj)
    check_breaking(traj, tmp_path)
    report = _unsteady_report(traj, 0)
    times = traj.times()
    rho = TestFunction(0.5 * (times[1] + times[-2]), 0.45 * (times[-2] - times[1]))
    phis = [TestFunction(**{k: d["phi"][k] for k in ("center", "width")})
            for d, _ in report.per_test_function]
    assert same([r for _, r in report.per_test_function],
                unsteady_residual_loop(traj.snapshots, phis, rho))


def test_more_snapshots_than_one_block(gaussian_trajectory, tmp_path):
    traj = gaussian_trajectory
    rows = _block_rows(traj.grid.n_points)
    assert len(traj.snapshots) > 2 * rows and len(traj.snapshots) % rows
    check_symmetry(traj)
    check_breaking(traj, tmp_path)
    phis = [TestFunction(12.0, 3.0), TestFunction(21.3, 4.4), TestFunction(30.0, 2.5)]
    rho = TestFunction(10.0, 9.0)
    assert same(unsteady_weak_residual(traj, phis, rho),
                unsteady_residual_loop(traj.snapshots, phis, rho))

    # the run directory: snapshot CSVs as the general writer gives them (check_breaking
    # compares diagnostics.csv)
    manifest = write_trajectory(tmp_path / "run", traj, {"solver": {}})
    digests = {e["path"]: e["sha256"] for e in manifest["outputs"]}
    for s in traj.snapshots[:: rows - 1]:
        name = snapshot_filename(s.time)
        ref = write_columns_csv(tmp_path / "ref.csv", ["u"], [s.u.values])
        assert digests[name] == ref
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_breaking_run(breaking_trajectory, tmp_path):
    traj, _ = breaking_trajectory
    assert detect_breaking(traj).detected
    check_breaking(traj, tmp_path)


@pytest.mark.parametrize("speed", [0.0, 0.125, 0.7, -1.3])
def test_grid_aligned_and_off_grid_axes(speed):
    # h = 0.125, snapshots every 0.5: speed 0.125 moves by half a grid step
    # per snapshot (an axis on or half-way between grid points), 0.7 and
    # -1.3 move off the grid
    grid = Grid(256, 32.0)
    traj = moving(gaussian(grid, 7.0 + 0.37 * grid.spacing), grid, speed, np.arange(21) * 0.5)
    check_symmetry(traj)
    aligned = moving(gaussian(grid, 7.0), grid, 2 * grid.spacing, np.arange(21) * 0.5)
    check_symmetry(aligned)
    u = traj.snapshots[3].u
    moves = np.array([0.0, 3 * grid.spacing, 5.3, -2.71])
    shifted = _shifted(u.values, grid, moves)
    reflected = _reflected(np.tile(u.values, (len(moves), 1)), grid, moves)
    for s, a, b in zip(moves, shifted, reflected):
        assert same(a, shift_field_loop(u, s).values)
        assert same(b, reflect_loop(u, s).values)


def test_pure_mode_takes_the_tie():
    grid = Grid(128, 20.0)
    for mode in (1, 3):
        values = np.sin(2 * np.pi * mode * grid.points / grid.length)
        [fit] = detect_rows([Field(grid, values)])
        assert fit[2]
        assert fit == detect_axis_loop(Field(grid, values))
        check_symmetry(moving(values, grid, 0.3, np.arange(5) * 0.5))


def test_two_peak_field():
    grid = Grid(256, 40.0)
    # equal peaks half a period apart: two distinct axes (multi-peak);
    # unequal peaks: an asymmetric field
    twin = gaussian(grid, 9.0) + gaussian(grid, 29.0)
    skew = gaussian(grid, 9.0) + 0.45 * gaussian(grid, 14.5)
    fields = [Field(grid, twin), Field(grid, skew)]
    fits = detect_rows(fields)
    assert fits == [detect_axis_loop(u) for u in fields]
    for values in (twin, skew):
        check_symmetry(moving(values, grid, 0.45, np.arange(19) * 0.5))
    assert fits[0][2]  # twin: ambiguous
    assert fits[1][1] > 0.1  # skew: asymmetric


def test_peak_runs_that_wrap_and_three_fold_axes():
    grid = Grid(120, 2 * np.pi)
    h = grid.spacing
    # an axis a quarter step below 0 or L/2: the correlation peak's run of
    # near-maximal samples wraps from index n - 1 to 0 and holds an exact tie
    for center in (-h / 4, np.pi - h / 4):
        u = Field(grid, gaussian(grid, center, width=0.5))
        assert detect_rows([u]) == [detect_axis_loop(u)]
    # a field of period L/3: three distinct axes (multi-peak), the axis at
    # the weaker deviation kept, as the smallest one
    for phase in (0.0, 0.2):
        x = grid.points - phase
        u = Field(grid, np.cos(3 * x) - 0.5 * np.cos(6 * x))
        [fit] = detect_rows([u])
        assert fit[2]
        assert fit == detect_axis_loop(u)
        check_symmetry(moving(u.values, grid, 0.31, np.arange(6) * 0.5))


@pytest.mark.parametrize("n", [16, 17, 32, 33, 192])
def test_noise_and_random_fields_detect_as_their_loop(n):
    # white noise on small grids makes some Newton polishes stop early
    # (C'' >= 0); noise made symmetric about a quarter step below 0 or L/2
    # puts tied samples at both ends of a wrapping run, where the start of
    # the walk decides which one the polish begins from
    rng = np.random.default_rng(n)
    grid = Grid(n, 10.0)
    fields = [Field(grid, rng.standard_normal(n)) for _ in range(60)]
    fields += [random_band_limited(grid, rng, amplitude=0.3, max_mode=int(rng.integers(1, n // 2)))
               for _ in range(20)]
    for axis in (-grid.spacing / 4, 5.0 - grid.spacing / 4):
        noise = [Field(grid, rng.standard_normal(n)) for _ in range(40)]
        fields += [Field(grid, v.values + reflect_loop(v, axis).values) for v in noise]
    assert detect_rows(fields) == [detect_axis_loop(u) for u in fields]
    check_symmetry(trajectory([State(0.25 * i, u) for i, u in enumerate(fields[:40])]))


def test_unsteady_window_excludes_end_snapshots(acceptance_12, gaussian_trajectory):
    traj = gaussian_trajectory
    times = traj.times()
    rho = TestFunction(7.3, 1.1)
    lo, hi = rho.support
    near = (times >= lo - 2 * rho.width) & (times <= hi + 2 * rho.width)
    rows = _block_rows(traj.grid.n_points)
    assert not near[:rows].any() and not near[-rows:].any()
    phis = [TestFunction(20.0, 5.0), TestFunction(8.0, 2.0)]
    assert same(unsteady_weak_residual(traj, phis, rho),
                unsteady_residual_loop(traj.snapshots, phis, rho))


def test_one_constant_snapshot_raises(gaussian_trajectory):
    snaps = list(gaussian_trajectory.snapshots[:40])
    i = _block_rows(gaussian_trajectory.grid.n_points) + 3  # in the second block
    snaps[i] = State(snaps[i].time, constant_field(gaussian_trajectory.grid, 0.25))
    traj = trajectory(snaps)
    with pytest.raises(ConstantFieldError):
        track_axis(traj)
    with pytest.raises(ConstantFieldError):
        verify_theorem(traj)


def test_steady_report_pairs_every_bump_with_one_bracket(solitary_c12):
    profiles = [solitary_c12, periodic_profile(TWParams(1.2, 0.0, -1.58e-4))]
    for prof in profiles:
        lo, hi = prof.xi[0], prof.xi[-1]
        span = hi - lo
        bumps = [TestFunction(lo + f * span, w * span) for f, w in
                 ((0.5, 0.1), (0.3, 0.08), (0.62, 0.2), (0.45, 0.05))]
        report = steady_residual_report(prof, bumps)
        loop = [steady_residual_loop(prof, b) for b in bumps]
        assert same([r for _, r in report.per_test_function], loop)
        assert same([_steady_residuals(prof, [b])[0] for b in bumps], loop)


def _level_roots_loop(params):
    """Turning points and tangencies as separate solves give them."""
    level = tw.level_polynomial(params)
    scale = max(1.0, abs(params.energy))
    tangent = [r for r in tw._real_roots(tw.force_poly(params)) if abs(level(r)) <= 1e-10 * scale]
    roots = [r for r in tw._real_roots(level) if all(abs(r - t) > 1e-6 for t in tangent)]
    return sorted(roots + tangent), tangent


@pytest.mark.parametrize("params", [
    TWParams(1.2), TWParams(1.2, 0.0, -1.58e-4), TWParams(-3.0, -1.0, 0.0),
    TWParams(0.4, 0.05, 0.01), TWParams(1.2, -0.0, -0.0),
])
def test_level_roots_match_separate_solves(params):
    roots, tangent = _level_roots_loop(params)
    assert all(same(a, b) for a, b in zip(level_roots(params), (roots, tangent)))


def test_periodic_run_tw_solves_each_polynomial_once(tmp_path, monkeypatch):
    calls = []
    real_roots = tw._real_roots

    def counted(poly):
        calls.append(tuple(poly.coef))
        return real_roots(poly)

    monkeypatch.setattr(tw, "_real_roots", counted)
    tw.level_roots.cache_clear()
    doc = {"speed": 1.2, "energy": -1.58e-4, "wave": "periodic"}
    run_tw(doc, tmp_path / "profile")
    params = TWParams(1.2, 0.0, -1.58e-4)
    assert sorted(calls) == sorted([tuple(tw.force_poly(params).coef),
                                    tuple(tw.level_polynomial(params).coef)])
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    roots, tangent = _level_roots_loop(params)
    assert sidecar["turning_points"] == roots and sidecar["tangencies"] == tangent

    # TWParams stores E = -0.0 as 0.0, so both share one solve
    calls.clear()
    level_roots(TWParams(0.4, 0.05, 0.0))
    level_roots(TWParams(0.4, 0.05, -0.0))
    assert len(calls) == 2


def test_run_with_snapshots_on_two_grids_exits_2(acceptance_12, tmp_path, capsys):
    # a snapshot on another grid, listed with its own digest: the manifest's
    # grid decides, and the snapshot does not fit it
    run = tmp_path / "run"
    write_trajectory(run, acceptance_12, ACCEPTANCE_12)
    name = snapshot_filename(acceptance_12.snapshots[2].time)
    coarse = Grid(64, 40.0)
    digest = write_columns_csv(run / name, ["x", "u"], [coarse.points, gaussian(coarse, 20.0)])
    manifest = json.loads((run / "manifest.json").read_text())
    next(e for e in manifest["outputs"] if e["path"] == name)["sha256"] = digest
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert main(["symmetry", "--run", str(run)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: snapshot {name}:")
    assert "does not match grid size" in err[0]
