"""A run directory round-trips exactly, and the commands that read or write
one refuse what does not fit in one line.

The snapshot names carry the exact times, the manifest the grid, and the
manifest digests the snapshot bytes.  Every number from outside follows one
rule (``errors.number``).  The fuzz gates drive ``symmetry`` and ``weakform``
on one written run, ``simulate`` over its ``analysis``, ``grid``, ``solver``
and ``initial`` settings, and ``sweep`` over its values, all with values no
run should take.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from oracles import with_slopes

from mase.cli import main
from mase.errors import ConfigError, number
from mase.evolution import MAX_SNAPSHOTS, MAX_STEPS, SolverConfig, Termination, Trajectory, evolve
from mase.grid import MAX_POINTS, MAX_WAVENUMBER, Field, Grid, State
from mase.operators import _spectral_tables, spectral_derivative
from mase.scenarios import build_initial_field, scenario_from_dict
from mase.storage import read_columns_csv, read_trajectory, write_columns_csv, write_trajectory

HUGE_INT = "9" * 400  # a JSON integer beyond the double range

# small enough for the fuzz gates: N = 32 and five snapshots
SMALL = {
    "grid": {"n_points": 32, "length": 20.0},
    "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
    "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
    "analysis": {"symmetry": True, "breaking": True, "weakform": True},
}


def run_cli(argv) -> tuple[int, str, list[str]]:
    """Exit code, stdout and stderr lines of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def one_error(code: int, err: list[str]) -> bool:
    return code == 2 and len(err) == 1 and err[0].startswith("error: config:")


@pytest.fixture()
def small_run(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL))
    run_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(run_dir)])[0] == 0
    return run_dir


# ---------------------------------------------------------------------------
# the round trip


def test_run_directory_round_trips_times_and_grid_exactly(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(n=st.sampled_from([16, 17, 32, 64]),
                      length=st.just(2 * math.pi) | st.floats(1.0, 100.0),
                      interval=st.sampled_from([1 / 3, 0.1, 1e-7]) | st.floats(1e-7, 0.5),
                      count=st.integers(1, 3), early=st.booleans())
    # an early stop appends the state at the stop time, between two snapshots
    @hypothesis.example(n=64, length=2 * math.pi, interval=1 / 3, count=3, early=True)
    @hypothesis.example(n=64, length=2 * math.pi, interval=1e-7, count=3, early=False)
    @hypothesis.example(n=32, length=40.0, interval=0.1, count=3, early=False)
    def round_trip(n, length, interval, count, early):
        scenario = scenario_from_dict({
            "grid": {"n_points": n, "length": length},
            "initial": {"kind": "gaussian", "amplitude": 0.05, "width": length / 8},
            # the initial max|u_x|, about 0.24 / length, is above 1e-4: an early
            # run stops after its first step
            "solver": {"t_end": count * interval, "snapshot_interval": interval,
                       "breaking_slope_threshold": 1e-4 if early else 1e3},
        })
        traj = evolve([State(0.0, build_initial_field(scenario))], scenario.solver)[0]
        run_dir = tmp_path_factory.mktemp("run")
        write_trajectory(run_dir, traj, dataclasses.asdict(scenario))
        loaded, _ = read_trajectory(run_dir)
        assert loaded.termination == traj.termination
        assert (traj.termination.value == "breaking_detected") == early
        assert loaded.grid.n_points == n and loaded.grid.length.hex() == length.hex()
        assert loaded.times().tobytes() == traj.times().tobytes()
        for a, b in zip(loaded.snapshots, traj.snapshots):
            # 12 significant digits in the CSV
            np.testing.assert_allclose(a.u.values, b.u.values, rtol=5e-12, atol=0)

    round_trip()


def test_a_snapshot_is_one_u_column_read_back_at_12_digits(tmp_path):
    grid = Grid(32, 20.0)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(grid.n_points) * 10.0 ** rng.integers(-300, 300, grid.n_points)
    config = SolverConfig(t_end=1.0, snapshot_interval=1.0)
    traj = Trajectory((State(0.0, Field(grid, values)),), config, Termination.COMPLETED)
    scenario = {"grid": dataclasses.asdict(grid), "solver": dataclasses.asdict(config)}
    # the writer takes only a trajectory with the slopes evolve checked
    with pytest.raises(ValueError, match="max_slopes"):
        write_trajectory(tmp_path, traj, scenario)
    assert not (tmp_path / "t=0.0.csv").exists()
    write_trajectory(tmp_path, with_slopes(traj), scenario)
    assert (tmp_path / "t=0.0.csv").read_text().splitlines() == ["u"] + ["%.12g" % v for v in values]
    loaded, _ = read_trajectory(tmp_path)
    expected = np.array([float("%.12g" % v) for v in values])
    assert loaded.snapshots[0].u.values.tobytes() == expected.tobytes()
    # a run read back has no slopes: evolve checked them, and the CSV holds them rounded
    assert loaded.max_slopes is None and loaded.steps is None


def test_a_trajectory_has_one_slope_per_snapshot():
    grid = Grid(32, 20.0)
    config = SolverConfig(t_end=1.0, snapshot_interval=1.0)
    snaps = (State(0.0, Field(grid, np.zeros(grid.n_points))),)
    with pytest.raises(ValueError, match="one entry per snapshot"):
        Trajectory(snaps, config, Termination.COMPLETED, max_slopes=(0.0, 0.0))
    assert Trajectory(snaps, config, Termination.COMPLETED, max_slopes=(0.0,)).max_slopes == (0.0,)


def test_a_run_with_snapshots_in_the_old_x_u_layout_reads_the_same_u(small_run):
    # runs written before snapshots held u alone repeat the grid as an x column
    before, _ = read_trajectory(small_run)
    manifest = json.loads((small_run / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        if entry["path"].startswith("t="):
            path = small_run / entry["path"]
            u = read_columns_csv(path)["u"]
            entry["sha256"] = write_columns_csv(path, ["x", "u"], [before.grid.points, u])
            assert path.read_text().startswith("x,u\n")
    (small_run / "manifest.json").write_text(json.dumps(manifest))
    after, _ = read_trajectory(small_run)
    assert after.times().tobytes() == before.times().tobytes()
    for a, b in zip(after.snapshots, before.snapshots):
        assert a.u.values.tobytes() == b.u.values.tobytes()
    for command in ("symmetry", "weakform"):
        code, _, err = run_cli([command, "--run", str(small_run)])
        assert code == 0 and not err


def test_simulate_symmetry_weakform_sequence_exits_0(small_run):
    code, out, err = run_cli(["symmetry", "--run", str(small_run)])
    assert code == 0 and out.startswith("verdict: ") and not err
    # the symmetry command rewrote its report and its manifest entry; the run still reads
    code, out, err = run_cli(["weakform", "--run", str(small_run)])
    assert code == 0 and out.startswith("max residual ") and not err


def test_a_snapshot_edited_after_the_run_exits_2(small_run):
    snap = sorted(small_run.glob("t=*.csv"))[2]
    lines = snap.read_text().splitlines(keepends=True)
    lines[5] = f"{float(lines[5]) + 1e-3!r}\n"
    snap.write_text("".join(lines))
    for command in ("symmetry", "weakform"):
        code, _, err = run_cli([command, "--run", str(small_run)])
        assert one_error(code, err)
        assert err[0] == f"error: config: snapshot {snap.name} does not match its manifest digest"


# ---------------------------------------------------------------------------
# the analysis tolerances


@pytest.mark.parametrize("setting, name", [
    ('analysis.symmetry_tol="abc"', "analysis.symmetry_tol"),
    ("analysis.symmetry_tol=NaN", "analysis.symmetry_tol"),
    ("analysis.travel_tol=-Infinity", "analysis.travel_tol"),
    ("analysis.travel_tol=0", "analysis.travel_tol"),
    ("analysis.symmetry_tol=" + HUGE_INT, "analysis.symmetry_tol"),
])
def test_simulate_with_a_bad_tolerance_exits_2_before_writing(tmp_path, setting, name):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL))
    run_dir = tmp_path / "run"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(run_dir),
                            "--set", setting])
    assert one_error(code, err)
    assert err[0].startswith(f"error: config: {name} must be a finite positive number")
    assert not run_dir.exists()


@pytest.mark.parametrize("flag", ["--symmetry-tol", "--travel-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3", "0"])
def test_symmetry_with_a_bad_tolerance_flag_exits_2(small_run, flag, value):
    report = small_run / "symmetry.json"
    before = report.read_bytes()
    code, _, err = run_cli(["symmetry", "--run", str(small_run), f"{flag}={value}"])
    assert one_error(code, err) and err[0].startswith(f"error: config: {flag} must be")
    assert report.read_bytes() == before


# ---------------------------------------------------------------------------
# the one rule for numbers from outside


@pytest.mark.parametrize("raw", [0.5, 3, -0.0, -7, 1e308, 2**1023, 5e-324])
def test_number_returns_a_finite_number_unchanged(raw):
    assert number("x", raw) is raw


@pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf, 2**1024, -(10**400), True, False,
                                 "1", "nan", None, [1], {}])
def test_number_refuses_everything_else_naming_the_setting(raw):
    with pytest.raises(ConfigError, match=r"^solver\.t_end must be a finite number, got "):
        number("solver.t_end", raw)


@pytest.mark.parametrize("raw, kind, words", [
    (0, {"positive": True}, "a finite positive number"),
    (-1e-300, {"positive": True}, "a finite positive number"),
    (64.7, {"integer": True}, "a finite whole number"),
    (0.5, {"positive": True, "integer": True}, "a finite positive whole number"),
])
def test_number_positive_and_integer(raw, kind, words):
    assert number("n", 64.0, **kind) == 64.0 and number("n", 64, **kind) == 64
    with pytest.raises(ConfigError, match=f"^n must be {words}, got "):
        number("n", raw, **kind)


def test_value_types_keep_their_given_numbers_and_raise_config_errors():
    # integer solver values stay integers, so their manifest bytes do not move
    assert repr(SolverConfig(t_end=10, snapshot_interval=1).t_end) == "10"
    # the grid stores an int size and a float length, as before
    grid = Grid(64.0, 20)
    assert (repr(grid.n_points), repr(grid.length)) == ("64", "20.0")
    for make in (lambda: Grid(64.7, 20.0), lambda: Grid(64, "20"),
                 lambda: SolverConfig(t_end="1", snapshot_interval=0.5)):
        with pytest.raises(ConfigError):  # still a ValueError for the Python API
            make()


def test_the_grid_and_the_snapshot_count_are_capped():
    assert Grid(MAX_POINTS, 1.0).n_points == MAX_POINTS
    with pytest.raises(ConfigError, match=r"^grid\.n_points must lie in \[16, 1048576\]"):
        Grid(MAX_POINTS + 1, 1.0)
    assert SolverConfig(t_end=1.0, snapshot_interval=1.0 / MAX_SNAPSHOTS)
    with pytest.raises(ConfigError, match=f"more than {MAX_SNAPSHOTS} snapshots"):
        SolverConfig(t_end=1.0, snapshot_interval=1.0 / (MAX_SNAPSHOTS + 1))


def test_the_wavenumber_and_the_step_count_are_capped():
    # the shortest grid keeps the cube of its largest wavenumber finite, in the tables and the derivatives
    shortest = Grid(64, np.pi * 64 / MAX_WAVENUMBER)
    assert all(np.all(np.isfinite(t)) for t in _spectral_tables(64, shortest.length).values())
    # orders 2 and 3 are built per call, so their multipliers are checked through the derivative
    field = Field(shortest, np.sin(2 * np.pi * shortest.points / shortest.length))
    assert all(np.all(np.isfinite(spectral_derivative(field, order).values)) for order in (2, 3))
    with pytest.raises(ConfigError, match=r"^grid\.length must be at least"):
        Grid(64, 0.5 * shortest.length)
    assert SolverConfig(t_end=MAX_STEPS * 0.1, snapshot_interval=100.0, dt_max=0.1)
    with pytest.raises(ConfigError, match=f"more than {MAX_STEPS} steps"):
        SolverConfig(t_end=1e308, snapshot_interval=1e308)


@pytest.mark.parametrize("length", ["1e-110", "1e-300", "5e-324"])
def test_simulate_refuses_a_grid_too_short_for_the_spectral_tables(tmp_path, length):
    cfg = tmp_path / "mode.json"
    cfg.write_text(json.dumps({**SMALL, "grid": {"n_points": 64, "length": 20.0},
                               "initial": {"kind": "mode", "amplitude": 0.05, "wavenumber": 2}}))
    run_dir = tmp_path / "run"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(run_dir),
                            "--set", f"grid.length={length}"])
    assert one_error(code, err) and "grid.length" in err[0]
    assert not run_dir.exists()


@pytest.mark.parametrize("settings, name", [
    (['analysis.breaking="False"'], "analysis.breaking"),
    (["analysis.weakform=False"], "analysis.weakform"),   # not JSON: the string "False"
    (["analysis.symmetry=1"], "analysis.symmetry"),
    (["grid.n_points=64.7"], "grid.n_points"),
    (['grid.n_points="64"'], "grid.n_points"),
    (["grid.length=true"], "grid.length"),
    (["initial.amplitude=true"], "initial.amplitude"),
    (['solver.t_end="1"'], "solver.t_end"),
    (['analysis.travel_tol="1e-3"'], "analysis.travel_tol"),
    (['initial.kind="file"', "initial.path=5"], "initial.path"),
    # beyond Python's 4,300-digit limit for int(), so not JSON: the string
    (["grid.n_points=" + "9" * 5000], "grid.n_points"),
    # the caps: neither allocates the size it would have asked for
    (["grid.n_points=1000000000000"], "grid.n_points"),
    (["solver.snapshot_interval=1e-15"], "solver.snapshot_interval"),
    (["initial.amplitude=1e308"], "max|u|"),
])
def test_simulate_refuses_a_value_outside_the_rule_before_writing(tmp_path, settings, name):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL))
    run_dir = tmp_path / "run"
    argv = ["simulate", "--config", str(cfg), "--out", str(run_dir)]
    for setting in settings:
        argv += ["--set", setting]
    code, _, err = run_cli(argv)
    assert one_error(code, err) and name in err[0]
    assert not run_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_config_with_an_integer_beyond_the_digit_limit_exits_2(tmp_path, command):
    cfg = tmp_path / "long.json"
    doc = SMALL if command == "simulate" else {"base": SMALL, "sweep": {"initial.amplitude": [0]}}
    cfg.write_text(json.dumps(doc).replace("0.05", "9" * 5000))
    code, _, err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert one_error(code, err) and err[0].startswith("error: config: config is not valid JSON")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_config_that_is_a_directory_exits_2(tmp_path, command):
    code, _, err = run_cli([command, "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert one_error(code, err) and "cannot be read" in err[0]
    assert not (tmp_path / "out").exists()


def test_a_tw_sweep_point_with_a_boolean_speed_is_that_points_error(tmp_path):
    cfg = tmp_path / "tw.json"
    cfg.write_text(json.dumps({"command": "tw", "base": {}, "sweep": {"speed": [True, 1.2]}}))
    code, _, err = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
    assert code == 0 and not err
    with open(tmp_path / "sweep" / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0][:3] == ["point_0000", "true", "error"]
    assert rows[0][-1] == "speed must be a finite number, got True"
    assert rows[1][2:4] == ["ok", "smooth_solitary"]
    assert not (tmp_path / "sweep" / "point_0000").exists()


def test_a_tw_sweep_point_with_a_setting_tw_does_not_read_is_that_points_error(tmp_path):
    # a misspelled energy would otherwise give the solitary wave of E = 0
    cfg = tmp_path / "tw.json"
    cfg.write_text(json.dumps({"command": "tw", "base": {"speed": 1.2, "energi": -1.58e-4},
                               "sweep": {"speed": [1.2]}}))
    code, _, err = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
    assert code == 0 and not err
    with open(tmp_path / "sweep" / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0][:3] == ["point_0000", "1.2", "error"]
    assert rows[0][-1] == ("unknown setting energi: tw reads speed, integration_constant, "
                           "energy, wave")
    assert not (tmp_path / "sweep" / "point_0000").exists()


@pytest.mark.parametrize("setting, name", [
    ("solvr.t_end=5", "unknown setting solvr: a scenario reads"),
    ("analysis.symetry=true", "unknown setting analysis.symetry: analysis reads"),
    ("initial.widht=9", "unknown setting initial.widht: a gaussian initial condition reads"),
    ('initial.kind=["gaussian"]', "unknown initial condition kind ['gaussian']"),
])
def test_simulate_refuses_a_setting_the_scenario_does_not_read(tmp_path, setting, name):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL))
    run_dir = tmp_path / "run"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(run_dir),
                            "--set", setting])
    assert one_error(code, err) and name in err[0]
    assert not run_dir.exists()


def test_a_sweep_point_with_a_setting_its_kind_does_not_read_is_that_points_error(tmp_path):
    cfg = tmp_path / "sweep.json"
    base = {**SMALL, "analysis": {}}
    cfg.write_text(json.dumps({"base": base, "sweep": {"initial.kind": ["gaussian", "zero"]}}))
    code, _, err = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
    assert code == 0 and not err
    rows = (tmp_path / "sweep" / "aggregate.csv").read_text().splitlines()[1:]
    assert ',ok,completed,' in rows[0]
    assert rows[1].startswith('point_0001,"""zero""",error,')
    assert rows[1].endswith("unknown setting initial.amplitude: a zero initial condition reads kind")


def test_a_run_to_1_5_with_snapshots_every_1_writes_0_1_and_1_5(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({**SMALL, "solver": {"t_end": 1.5, "snapshot_interval": 1.0}}))
    run_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(run_dir)])[0] == 0
    assert sorted(p.name for p in run_dir.glob("t=*.csv")) == ["t=0.0.csv", "t=1.0.csv",
                                                              "t=1.5.csv"]
    assert read_trajectory(run_dir)[0].times().tolist() == [0.0, 1.0, 1.5]


# ---------------------------------------------------------------------------
# fuzz gates; any RuntimeWarning fails the suite (pyproject's filterwarnings)


def _odd_floats(st):
    return st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308,
                            5e-324, 1e-6, 1e-3]) | st.floats()


def _odd_ints(st):
    return st.sampled_from([-1, 0, 1, 5, 1000, 1001, 10**400]) | st.integers(-10**30, 10**30)


def test_symmetry_and_weakform_fuzz_end_in_a_report_or_one_error_line(small_run, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(symmetry_tol=_odd_floats(st), travel_tol=_odd_floats(st),
                      n_bumps=_odd_ints(st), seed=_odd_ints(st))
    def check(symmetry_tol, travel_tol, n_bumps, seed):
        code, out, err = run_cli(["symmetry", "--run", str(small_run),
                                  f"--symmetry-tol={symmetry_tol!r}",
                                  f"--travel-tol={travel_tol!r}", "--out", str(tmp_path / "s.json")])
        if all(math.isfinite(tol) and tol > 0 for tol in (symmetry_tol, travel_tol)):
            assert code == 0 and not err and out.startswith("verdict: ")
        else:
            assert one_error(code, err)
        code, out, err = run_cli(["weakform", "--run", str(small_run), f"--n-bumps={n_bumps}",
                                  f"--seed={seed}", "--out", str(tmp_path / "w.json")])
        if 1 <= n_bumps <= 1000 and seed >= 0:
            assert code == 0 and not err and out.startswith("max residual ")
        else:
            assert one_error(code, err)

    check()


def test_simulate_analysis_fuzz_ends_in_a_run_or_one_error_line(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({**SMALL, "solver": {"t_end": 0.5, "snapshot_interval": 0.125}}))
    values = st.sampled_from(["NaN", "Infinity", "-Infinity", "0", "-1", "1e308", HUGE_INT,
                              '"abc"', "true", "false", "null", "1e-6", "{}", "[1]"])
    settings = st.lists(st.tuples(st.sampled_from(["symmetry_tol", "travel_tol", "symmetry",
                                                   "breaking", "weakform"]), values),
                        min_size=1, max_size=3)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(settings=settings)
    def check(settings):
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]
        for key, value in settings:
            argv += ["--set", f"analysis.{key}={value}"]
        code, out, err = run_cli(argv)
        if code:
            assert one_error(code, err)
        else:
            assert not err and out.startswith("run written to ")

    check()


# values no setting should take, as JSON text
ODD_VALUES = ["NaN", "Infinity", "-Infinity", "0", "-1", "1e308", HUGE_INT, '"abc"', "true",
              "null", "64.7"]
FUZZED = {
    "grid": ["n_points", "length"],
    "solver": ["t_end", "snapshot_interval", "cfl", "dt_max", "dt_min", "breaking_slope_threshold"],
    "initial": ["amplitude", "width", "center", "wavenumber", "speed"],
}
# one base per initial-condition kind with numeric settings
BASES = [
    {**SMALL, "solver": {"t_end": 0.5, "snapshot_interval": 0.125}},
    {**SMALL, "initial": {"kind": "mode", "amplitude": 0.05, "wavenumber": 2},
     "solver": {"t_end": 0.5, "snapshot_interval": 0.125}},
    {**SMALL, "initial": {"kind": "tw_profile", "speed": 1.2},
     "solver": {"t_end": 0.5, "snapshot_interval": 0.125}},
]


def _ends_in_a_result_or_one_error_line(code: int, out: str, err: list[str], written: str) -> None:
    if code:
        assert code in (2, 3, 4, 5) and len(err) == 1 and err[0].startswith("error: "), err
    else:
        assert not err and out.startswith(written)


def test_simulate_settings_fuzz_ends_in_a_run_or_one_error_line(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    setting = st.sampled_from([f"{section}.{key}" for section, keys in FUZZED.items()
                               for key in keys])
    settings = st.lists(st.tuples(setting, st.sampled_from(ODD_VALUES)), min_size=1, max_size=2,
                        unique_by=lambda item: item[0])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(base=st.sampled_from(range(len(BASES))), settings=settings)
    @hypothesis.example(base=0, settings=[("grid.length", "1e308")])
    @hypothesis.example(base=1, settings=[("initial.amplitude", "1e308")])
    @hypothesis.example(base=0, settings=[("solver.t_end", "1e308")])
    @hypothesis.example(base=0, settings=[("solver.t_end", "1e308"),
                                          ("solver.snapshot_interval", "1e308")])
    def check(base, settings):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(BASES[base]))
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]
        for key, value in settings:
            argv += ["--set", f"{key}={value}"]
        code, out, err = run_cli(argv)
        _ends_in_a_result_or_one_error_line(code, out, err, "run written to ")

    check()


def test_sweep_values_fuzz_ends_in_a_table_or_one_error_line(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    simulate_keys = [f"{section}.{key}" for section, keys in FUZZED.items() for key in keys]
    tw_keys = ["speed", "integration_constant", "energy", "wave"]
    values = st.lists(st.sampled_from(ODD_VALUES + ["1.2", '"periodic"']), min_size=1, max_size=2)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(command=st.sampled_from(["simulate", "tw"]), data=st.data())
    def check(command, data):
        if command == "simulate":
            base = BASES[data.draw(st.sampled_from(range(len(BASES))))]
            key = data.draw(st.sampled_from(simulate_keys))
        else:
            base, key = {"speed": 1.2}, data.draw(st.sampled_from(tw_keys))
        drawn = data.draw(values)
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"command": "%s", "base": %s, "sweep": {"%s": [%s]}}'
                       % (command, json.dumps(base), key, ", ".join(drawn)))
        sweep_dir = tmp_path / "sweep"
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--out", str(sweep_dir)])
        _ends_in_a_result_or_one_error_line(code, out, err, "sweep of ")
        if code:
            # only a swept number outside the double's finite range stops the sweep
            assert {"NaN", "Infinity", "-Infinity", HUGE_INT} & set(drawn)
            assert err[0].startswith(f"error: config: sweep.{key} must be a finite number")
        else:
            rows = (sweep_dir / "aggregate.csv").read_text().splitlines()[1:]
            assert len(rows) == len(drawn)

    check()
