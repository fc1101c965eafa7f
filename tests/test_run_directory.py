"""A run directory round-trips exactly, and the commands that read one refuse
what does not fit it in one line.

The snapshot names carry the exact times, the manifest the grid, and the
manifest digests the snapshot bytes; the fuzz gates drive ``symmetry`` and
``weakform`` on one written run and ``simulate`` over the ``analysis``
settings with values no run should take.
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from mase.cli import main
from mase.evolution import evolve
from mase.grid import State
from mase.scenarios import build_initial_field, scenario_from_dict
from mase.storage import read_trajectory, write_trajectory

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


def test_simulate_symmetry_weakform_sequence_exits_0(small_run):
    code, out, err = run_cli(["symmetry", "--run", str(small_run)])
    assert code == 0 and out.startswith("verdict: ") and not err
    # the symmetry command rewrote its report inside the run; the snapshots still read
    code, out, err = run_cli(["weakform", "--run", str(small_run)])
    assert code == 0 and out.startswith("max residual ") and not err


def test_a_snapshot_edited_after_the_run_exits_2(small_run):
    snap = sorted(small_run.glob("t=*.csv"))[2]
    lines = snap.read_text().splitlines(keepends=True)
    x, u = lines[5].split(",")
    lines[5] = f"{x},{float(u) + 1e-3!r}\n"
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
