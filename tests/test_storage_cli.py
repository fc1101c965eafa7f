import concurrent.futures
import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import SingularLineError, verify_manifest

from mase import cli, evolution
from mase.cli import main
from mase.errors import (
    ConfigError,
    DerivativeOrderError,
    MaseError,
    NonFiniteFieldError,
    SupportError,
)
from mase.evolution import SolverConfig, Trajectory, evolve
from mase.grid import Field, Grid, State
from mase.scenarios import build_initial_field, load_scenario, scenario_from_dict
from mase.storage import (
    read_profile,
    read_trajectory,
    snapshot_filename,
    write_columns_csv,
    write_json,
    write_profile,
    write_trajectory,
)
from mase.traveling_wave import TWParams, peaked_composite, periodic_profile, solitary_profile
from mase.weakform import ResidualReport

HUGE_INT = "9" * 400  # a JSON integer beyond the double range


@pytest.fixture()
def scenario_file(tmp_path):
    doc = {
        "grid": {"n_points": 128, "length": 40.0},
        "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
        "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
        "analysis": {"symmetry": True, "breaking": True, "weakform": True},
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return p


# ---------------------------------------------------------------------------
# storage


def test_trajectory_round_trip(tmp_path):
    grid = Grid(64, 20.0)
    x = grid.points
    u0 = Field(grid, 0.05 * np.exp(-((x - 10.0) ** 2) / 4.0))
    traj = evolve([State(0.0, u0)], SolverConfig(t_end=0.5, snapshot_interval=0.25))[0]
    scenario = {"grid": dataclasses.asdict(grid), "solver": {"t_end": 0.5, "snapshot_interval": 0.25}}
    write_trajectory(tmp_path, traj, scenario)
    assert verify_manifest(tmp_path)
    loaded, manifest = read_trajectory(tmp_path)
    assert loaded.termination == traj.termination
    assert loaded.grid == grid
    assert len(loaded.snapshots) == len(traj.snapshots)
    for a, b in zip(loaded.snapshots, traj.snapshots):
        assert a.time == b.time
        # 12 significant digits in the CSV
        assert np.max(np.abs(a.u.values - b.u.values)) < 1e-11 * max(1.0, b.u.sup_norm())


def test_snapshot_filename_format():
    assert snapshot_filename(0.0) == "t=0.0.csv"
    assert snapshot_filename(0.25) == "t=0.25.csv"
    assert snapshot_filename(0.1 + 0.2) == "t=0.30000000000000004.csv"
    assert snapshot_filename(1e-7) == "t=1e-07.csv"


def test_manifest_detects_tampering(tmp_path):
    grid = Grid(64, 20.0)
    traj = evolve([State(0.0, Field(grid, np.zeros(64)))],
                  SolverConfig(t_end=0.5, snapshot_interval=0.25))[0]
    write_trajectory(tmp_path, traj, {})
    target = tmp_path / "diagnostics.csv"
    target.write_text(target.read_text() + "tampered\n")
    assert not verify_manifest(tmp_path)


def test_profile_round_trip(tmp_path, solitary_c12):
    prefix = tmp_path / "profile_c=1.2"
    write_profile(prefix, solitary_c12, {"note": 1})
    loaded = read_profile(prefix)
    assert loaded.params == solitary_c12.params
    assert loaded.regularity == solitary_c12.regularity
    assert np.max(np.abs(loaded.values - solitary_c12.values)) < 1e-11


WAVES = {"solitary": lambda: solitary_profile(1.2),
         "periodic": lambda: periodic_profile(TWParams(1.2, 0.0, -1.58e-4)),
         "peaked": lambda: peaked_composite(-3.0, -1.0)}


@pytest.mark.parametrize("wave", WAVES)
def test_write_profile_writes_the_one_column_u_and_its_exact_spacing(tmp_path, wave):
    # the grid is the sidecar's spacing, so xi reads back bitwise and U at 12 digits
    profile = WAVES[wave]()
    prefix = tmp_path / "profile"
    write_profile(prefix, profile)
    data = Path(str(prefix) + ".csv").read_bytes()
    assert data.startswith(b"U\n")
    write_columns_csv(tmp_path / "direct.csv", ["U"], [profile.values])
    assert data == (tmp_path / "direct.csv").read_bytes()
    n = len(profile.xi)
    sidecar = json.loads(Path(str(prefix) + ".json").read_text())
    assert sidecar["spacing"] == profile.xi[n // 2 + 1]
    loaded = read_profile(prefix)
    assert loaded.xi.tobytes() == profile.xi.tobytes()
    assert np.all(np.abs(loaded.values - profile.values) <= 5e-12 * np.abs(profile.values))


def test_write_profile_refuses_samples_off_the_constructors_grid(tmp_path, solitary_c12):
    shifted = dataclasses.replace(solitary_c12, xi=solitary_c12.xi + 0.5)
    with pytest.raises(ValueError, match="grid"):
        write_profile(tmp_path / "profile", shifted)
    assert not list(tmp_path.iterdir())


def _write_parent_layout(prefix: Path, profile) -> None:
    """``prefix`` as profiles were written before the CSV held U alone: xi,U and no spacing."""
    write_profile(prefix, profile)
    write_columns_csv(Path(str(prefix) + ".csv"), ["xi", "U"], [profile.xi, profile.values])
    sidecar = Path(str(prefix) + ".json")
    doc = json.loads(sidecar.read_text())
    del doc["spacing"]
    write_json(sidecar, doc)


@pytest.mark.parametrize("wave", WAVES)
def test_a_profile_in_the_xi_u_layout_reads_as_before(tmp_path, capsys, wave):
    profile = WAVES[wave]()
    old, new = tmp_path / "old" / "profile", tmp_path / "new" / "profile"
    old.parent.mkdir()
    new.parent.mkdir()
    _write_parent_layout(old, profile)
    write_profile(new, profile)
    assert Path(str(old) + ".csv").read_text().startswith("xi,U\n")
    old_loaded, new_loaded = read_profile(old), read_profile(new)
    assert old_loaded.values.tobytes() == new_loaded.values.tobytes()
    assert np.all(np.abs(old_loaded.xi - profile.xi) <= 5e-12 * np.abs(profile.xi))
    assert main(["weakform", "--profile", str(old)]) == 0
    assert capsys.readouterr().err == ""
    assert (old.parent / "residuals.json").exists()


@pytest.mark.parametrize("layout, key, value", [
    *[("U", "spacing", value) for value in ("missing", 0, -1, "0.1", None)],
    *[(layout, "period", value) for layout in ("U", "xi,U") for value in ("x", [1], -1)],
])
def test_cli_weakform_profile_malformed_spacing_or_period_exits_2(tmp_path, solitary_c12, capsys,
                                                                   layout, key, value):
    # each number of the sidecar passes the rule for numbers; period may be null
    prefix = tmp_path / "profile_c=1.2"
    (write_profile if layout == "U" else _write_parent_layout)(prefix, solitary_c12)
    sidecar = Path(str(prefix) + ".json")
    doc = json.loads(sidecar.read_text())
    if value == "missing":
        del doc[key]
    else:
        doc[key] = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"cannot read profile .*{key} must be"):
        read_profile(prefix)
    assert main(["weakform", "--profile", str(prefix)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: cannot read profile")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile_c=1.2.csv",
                                                          "profile_c=1.2.json"]


# ---------------------------------------------------------------------------
# CLI


def test_cli_simulate_and_symmetry(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    assert verify_manifest(run_dir)
    for name in ("manifest.json", "diagnostics.csv", "symmetry.json",
                 "breaking.json", "residuals.json", "run.log"):
        assert (run_dir / name).exists()
    assert main(["symmetry", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "verdict:" in out


def test_analysis_commands_keep_the_manifest_true(tmp_path, scenario_file, capsys):
    # each report written into the run updates its manifest entry, so every
    # listed file keeps its digest; a report written elsewhere leaves it alone
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    assert capsys.readouterr().out == f"run written to {run_dir} (termination: completed)\n"
    assert verify_manifest(run_dir)
    for command in (["symmetry", "--symmetry-tol", "1e-3"], ["weakform", "--n-bumps", "3"]):
        assert main([*command, "--run", str(run_dir)]) == 0
        assert verify_manifest(run_dir)
    # it lists every file but itself and run.log
    listed = {e["path"] for e in json.loads((run_dir / "manifest.json").read_text())["outputs"]}
    assert listed == {p.name for p in run_dir.iterdir()} - {"manifest.json", "run.log"}
    manifest = (run_dir / "manifest.json").read_bytes()
    elsewhere = tmp_path / "elsewhere"
    for command in ("symmetry", "weakform"):
        assert main([command, "--run", str(run_dir), "--out", str(elsewhere / f"{command}.json")]) == 0
    assert (run_dir / "manifest.json").read_bytes() == manifest
    assert sorted(p.name for p in elsewhere.iterdir()) == ["symmetry.json", "weakform.json"]
    capsys.readouterr()


@pytest.mark.parametrize("report", ["symmetry.json", "diagnostics.csv"])
def test_an_edited_report_is_refused_in_one_line(tmp_path, scenario_file, capsys, report):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    path = run_dir / report
    path.write_text(path.read_text() + " ")
    capsys.readouterr()
    assert main(["symmetry", "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: output {report} does not match its manifest digest\n"


def test_an_out_naming_the_manifest_is_refused(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    assert main(["symmetry", "--run", str(run_dir), "--out", str(run_dir / "manifest.json")]) == 2
    assert capsys.readouterr().err == "error: config: --out must not name the run's manifest.json\n"
    assert verify_manifest(run_dir)


def step_line(run_dir: Path) -> str:
    lines = [ln for ln in (run_dir / "run.log").read_text().splitlines() if ln.startswith("steps ")]
    assert len(lines) == 1
    return lines[0]


def expected_step_line(doc: dict) -> str:
    scenario = scenario_from_dict(doc)
    st = evolve([State(0.0, build_initial_field(scenario))], scenario.solver)[0].steps
    assert st.accepted > 0 and 0.0 < st.dt_smallest <= st.dt_largest <= scenario.solver.dt_max
    return (f"steps accepted={st.accepted} rejected={st.rejected} "
            f"dt_smallest={st.dt_smallest!r} dt_largest={st.dt_largest!r}")


def test_run_log_says_how_the_run_stepped(tmp_path, scenario_file):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    assert step_line(run_dir) == expected_step_line(json.loads(scenario_file.read_text()))


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": {"n_points": 4, "length": 40.0}, "solver": {"t_end": 1.0, "snapshot_interval": 0.5}}')
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "\n" not in err.strip()


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("command, text, overrides", [
    ("sweep", "[1, 2]", []),
    ("sweep", '"base"', []),
    ("simulate", "[1, 2]", ["--set", "a.b=1"]),
    ("sweep", "[1, 2]", ["--set", "a=1"]),
], ids=["sweep-list", "sweep-string", "simulate-list-set", "sweep-list-set"])
def test_cli_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, command, text, overrides):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r"), *overrides]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: config must be a JSON object, got ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("section, value", [
    ("analysis", []),
    ("initial", [["kind", "gaussian"], ["amplitude", 0.05], ["width", 2.0]]),
    ("grid", [["n_points", 128], ["length", 40.0]]),
], ids=["empty-list", "list-of-pairs", "grid-pairs"])
def test_cli_scenario_section_that_is_not_a_json_object_exits_2(tmp_path, scenario_file, capsys,
                                                                section, value):
    doc = json.loads(scenario_file.read_text())
    doc[section] = value
    scenario_file.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(scenario_file), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {section} must be a JSON object")
    assert not (tmp_path / "r").exists()


def test_cli_set_overrides_win(tmp_path, scenario_file):
    run_dir = tmp_path / "run_o"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir),
                 "--set", "solver.t_end=0.5", "--set", "analysis.weakform=false"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["scenario"]["solver"]["t_end"] == 0.5
    assert not (run_dir / "residuals.json").exists()


def test_cli_tw_solitary(tmp_path, capsys):
    out = tmp_path / "tw"
    assert main(["tw", "--speed", "1.2", "--out", str(out)]) == 0
    prefix = out / "profile_c=1.2"
    assert (out / "profile_c=1.2.csv").exists()
    loaded = read_profile(prefix)
    assert loaded.regularity.value == "smooth_solitary"
    sidecar = json.loads((out / "profile_c=1.2.json").read_text())
    assert sidecar["max_steady_residual"] < 1e-4
    assert "turning_points" in sidecar and "singular_line" in sidecar


def test_cli_tw_nonexistence_exits_3(tmp_path, capsys):
    code = main(["tw", "--speed", "0.5", "--out", str(tmp_path / "tw")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: nonexistence:")


@pytest.mark.parametrize("speed", ["1e78", "1e79", "1e300"])
def test_cli_tw_peaked_at_huge_speed_exits_3(tmp_path, capsys, speed):
    # from about 1e79 F(U_s) overflows; the refusal must not warn on the way
    argv = ["tw", "--wave", "peaked", "--speed", speed, "--out", str(tmp_path / "tw")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: nonexistence: F(U_s) =")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "tw").exists()


def test_cli_tw_periodic_corner_exits_3(tmp_path, capsys):
    # c = -1 puts the singular line at U = 0, which is also a turning point
    argv = ["tw", "--speed", "-1", "-A", "-0.05", "-E", "0", "--wave", "periodic",
            "--out", str(tmp_path / "tw")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: nonexistence: turning point U = 0 lies on the singular line")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "tw").exists()


def test_cli_tw_peaked_is_sampled_over_one_period(tmp_path):
    # a repeated end sample would lengthen the sampled period by one spacing
    out = tmp_path / "tw"
    argv = ["tw", "--speed", "-3", "-A", "-1", "--wave", "peaked", "--out", str(out)]
    assert main(argv) == 0
    sidecar = json.loads((out / "profile_c=-3_A=-1.json").read_text())
    assert sidecar["regularity"] == "peaked"
    assert sidecar["max_steady_residual"] < 1e-6


@pytest.mark.parametrize("wave, flag, value", [
    ("solitary", "-A", "0.5"), ("solitary", "-E", "-1e-4"), ("peaked", "-E", "0.1"),
])
def test_cli_tw_flag_the_wave_ignores_exits_2(tmp_path, capsys, wave, flag, value):
    speed = "1.2" if wave == "solitary" else "-3"
    argv = ["tw", "--speed", speed, "-A=-1" if wave == "peaked" else "-A=0", f"{flag}={value}",
            "--wave", wave, "--out", str(tmp_path / "tw")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: --wave {wave} ignores") and f"({flag})" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "tw").exists()


def test_cli_tw_and_weakform_profile_draw_the_same_bumps(tmp_path):
    tw_dir = tmp_path / "tw"
    assert main(["tw", "--speed", "1.2", "--seed", "3", "--out", str(tw_dir)]) == 0
    out = tmp_path / "steady.json"
    assert main(["weakform", "--profile", str(tw_dir / "profile_c=1.2"), "--seed", "3",
                 "--out", str(out)]) == 0
    ours = json.loads(out.read_text())["per_test_function"]
    theirs = json.loads((tw_dir / "profile_c=1.2_residuals.json").read_text())["per_test_function"]
    assert len(ours) == len(theirs) == 5
    # the draws read only the grid, which the sidecar's spacing gives back exactly
    assert [a["test_function"] for a in ours] == [b["test_function"] for b in theirs]


def test_cli_symmetry_constant_run_exits_4(tmp_path, capsys):
    doc = {
        "grid": {"n_points": 64, "length": 20.0},
        "initial": {"kind": "zero"},
        "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
    }
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "zrun"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    from mase.storage import read_columns_csv

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["termination"] == "completed"
    snap = read_columns_csv(run_dir / "t=1.0.csv")
    assert np.all(snap["u"] == 0.0)
    code = main(["symmetry", "--run", str(run_dir)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: degenerate:")


def test_cli_symmetry_on_a_run_scaled_past_the_squares_exits_5(tmp_path, capsys):
    grid = Grid(64, 10.0)
    u0 = Field(grid, 0.05 * np.exp(-((grid.points - 5.0) ** 2)))
    traj = evolve([State(0.0, u0)], SolverConfig(t_end=0.5, snapshot_interval=0.25))[0]
    scaled = Trajectory(tuple(State(s.time, Field(grid, 1e155 * s.u.values))
                              for s in traj.snapshots), traj.config, traj.termination)
    run_dir = tmp_path / "run"
    write_trajectory(run_dir, scaled, {"grid": dataclasses.asdict(grid),
                                       "solver": dataclasses.asdict(traj.config)})
    assert main(["symmetry", "--run", str(run_dir)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite-field:")


def test_symmetry_of_a_run_whose_mean_overflows_the_squares_is_an_error(tmp_path, capsys):
    # the axis detection removes the 1e160 mean, so only the travel error's
    # norms of the raw snapshots overflow
    grid = Grid(64, 10.0)
    u0 = Field(grid, 1e-5 * np.exp(-((grid.points - 5.0) ** 2)))
    traj = evolve([State(0.0, u0)], SolverConfig(t_end=0.5, snapshot_interval=0.25))[0]
    lifted = Trajectory(tuple(State(s.time, Field(grid, 1e160 + s.u.values))
                              for s in traj.snapshots), traj.config, traj.termination)
    scenario = scenario_from_dict({"grid": {"n_points": 64, "length": 10.0},
                                   "solver": dataclasses.asdict(traj.config),
                                   "analysis": {"symmetry": True}})
    run_dir = tmp_path / "run"
    cli._write_run(scenario, lifted, run_dir, 0, 0.0)  # the analyses of simulate and sweep
    report = json.loads((run_dir / "symmetry.json").read_text())
    assert list(report) == ["error"] and "overflows" in report["error"]
    assert main(["symmetry", "--run", str(run_dir)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite-field:")


def test_cli_weakform_on_run_and_profile(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run_w"
    main(["simulate", "--config", str(scenario_file), "--out", str(run_dir),
          "--set", "solver.snapshot_interval=0.05", "--set", "analysis.weakform=false"])
    assert main(["weakform", "--run", str(run_dir), "--seed", "3"]) == 0
    assert (run_dir / "residuals.json").exists()

    tw_dir = tmp_path / "tw_w"
    main(["tw", "--speed", "1.2", "--out", str(tw_dir)])
    out = tmp_path / "steady.json"
    capsys.readouterr()
    assert main(["weakform", "--profile", str(tw_dir / "profile_c=1.2"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("max residual ")
    doc = json.loads(out.read_text())
    assert all(abs(e["residual"]) < 1e-4 for e in doc["per_test_function"])


def test_cli_weakform_rejects_empty_bump_family(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run_0"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    tw_dir = tmp_path / "tw_0"
    assert main(["tw", "--speed", "1.2", "--out", str(tw_dir)]) == 0
    for source in (["--run", str(run_dir)], ["--profile", str(tw_dir / "profile_c=1.2")]):
        capsys.readouterr()
        assert main(["weakform", *source, "--n-bumps", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: config: --n-bumps")
    with pytest.raises(ValueError):
        ResidualReport((), 1.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--speed", "--integration-constant", "--energy"])
def test_cli_tw_non_finite_arguments_exit_2(tmp_path, capsys, flag, value):
    argv = ["tw", "--speed", "1.2", f"{flag}={value}", "--out", str(tmp_path / "tw")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    name = flag[2:].replace("-", "_")
    assert err.startswith(f"error: config: {name} must be a finite number")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "tw").exists()


@pytest.mark.parametrize("speed", ["1e70", "1e300", "1.7e308", "-5e12", "-1e70"])
def test_cli_tw_speed_beyond_the_sampled_range_exits_2(tmp_path, capsys, speed):
    # the level overflows between 0 and the crest (positive speeds), and the
    # cusped window 2 (xi_cut - ln(100)/kappa) is negative (negative speeds)
    assert main(["tw", "--speed", speed, "--out", str(tmp_path / "tw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: speed") and "beyond the range" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "tw").exists()


def test_cli_tw_refuses_a_wave_whose_steady_residual_overflows(tmp_path, capsys):
    # the wave evaluates in double precision, its weak residual sums do not
    argv = ["tw", "--speed=1.321115620179762e32", "-A=-6.297127533845603e244",
            "-E=1.0181168190566232e280", "--wave", "periodic", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: speed 1.32112e+32")


def test_cli_tw_fuzz_ends_in_a_wave_or_one_error_line(tmp_path):
    # speeds, A and E up to the largest double; any RuntimeWarning fails the
    # suite (pyproject's filterwarnings)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    magnitude = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                          st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 308.25))
    value = magnitude | st.floats(-6.0, 6.0)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(wave=st.sampled_from(["auto", "solitary", "periodic", "peaked"]),
                      c=value, a=st.just(0.0) | value, e=st.just(0.0) | value)
    def check(wave, c, a, e):
        # the flags a wave ignores stay 0; that refusal has its own test
        a = 0.0 if wave == "solitary" else a
        e = 0.0 if wave in ("solitary", "peaked") else e
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["tw", f"--speed={c!r}", f"-A={a!r}", f"-E={e!r}",
                         "--wave", wave, "--out", str(tmp_path)])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3)
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert not lines and out.getvalue().startswith("profile written to ")

    check()


def test_cli_tw_takes_negative_values_in_exponent_notation_after_a_space(tmp_path):
    out = tmp_path / "tw"
    argv = ["tw", "--speed", "1.2", "--energy", "-1.6e-4", "--wave", "periodic", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "profile_c=1.2_E=-0.00016.json").read_text())["energy"] == -1.6e-4
    assert main(["tw", "-c", "-3E0", "-A", "-1e0", "-E", "0", "--wave", "peaked",
                 "--out", str(out)]) == 0
    sidecar = json.loads((out / "profile_c=-3_A=-1.json").read_text())
    assert (sidecar["speed"], sidecar["integration_constant"]) == (-3.0, -1.0)


@pytest.mark.parametrize("speed, a, e, name", [
    (1.2, 0.0, 0.0, "profile_c=1.2"),
    (1200.0, 0.0, 0.0, "profile_c=1200"),
    (-3.0, 0.0, 0.0, "profile_c=-3"),
    (1.2000001, 0.0, 0.0, "profile_c=1.2000001"),
    (-3.0, -1.0, 0.0, "profile_c=-3_A=-1"),
    (1.2, 0.0, -1.6e-4, "profile_c=1.2_E=-0.00016"),
    (1.2, 0.5, -1e-4, "profile_c=1.2_A=0.5_E=-0.0001"),
])
def test_cli_tw_name_is_every_nonzero_parameter_read_back_exactly(speed, a, e, name):
    assert cli._tw_name(speed, a, e) == name


def test_cli_tw_waves_of_different_parameters_keep_their_own_files(tmp_path):
    # six significant digits without A and E would name all three profile_c=1.2
    out = tmp_path / "tw"
    runs = [("1.2", "-1e-4", "periodic"), ("1.2", "-2e-4", "periodic"), ("1.2000001", "0", "auto")]
    for speed, energy, wave in runs:
        assert main(["tw", "--speed", speed, f"--energy={energy}", "--wave", wave,
                     "--out", str(out)]) == 0
    sidecars = {p.name: json.loads(p.read_text()) for p in out.glob("*.json")
                if not p.name.endswith("_residuals.json")}
    assert sorted(sidecars) == ["profile_c=1.2000001.json", "profile_c=1.2_E=-0.0001.json",
                                "profile_c=1.2_E=-0.0002.json"]
    assert [(sidecars[name]["speed"], sidecars[name]["energy"]) for name in sorted(sidecars)] == [
        (1.2000001, 0.0), (1.2, -1e-4), (1.2, -2e-4)]


@pytest.mark.parametrize(
    "text",
    [
        "x,u\n" + "0,0\n" * 63 + "1,abc\n",       # non-numeric cell
        "x,u\n" + "0,0\n" * 32 + "1\n" + "0,0\n" * 31,  # ragged row
        "x,v\n" + "0,0\n" * 64,                   # no u column
        None,                                       # no such file
    ],
    ids=["non-numeric", "ragged", "no-u-column", "missing-file"],
)
def test_cli_simulate_bad_file_initial_condition_exits_2(tmp_path, capsys, text):
    data = tmp_path / "u0.csv"
    if text is not None:
        data.write_text(text)
    doc = {
        "grid": {"n_points": 64, "length": 20.0},
        "initial": {"kind": "file", "path": str(data)},
        "solver": {"t_end": 0.5, "snapshot_interval": 0.25},
    }
    cfg = tmp_path / "file_ic.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and len(err.splitlines()) == 1


def test_snapshots_1e_7_apart_write_4_names_and_read_back(tmp_path, scenario_file):
    run_dir = tmp_path / "close"
    settings = ["solver.snapshot_interval=1e-7", "solver.t_end=3e-7"]
    argv = ["simulate", "--config", str(scenario_file), "--out", str(run_dir)]
    assert main(argv + [a for setting in settings for a in ("--set", setting)]) == 0
    assert len(list(run_dir.glob("t=*.csv"))) == 4
    scenario = load_scenario(scenario_file, settings)
    expected = evolve([State(0.0, build_initial_field(scenario))], scenario.solver)[0]
    assert read_trajectory(run_dir)[0].times().tobytes() == expected.times().tobytes()
    assert main(["symmetry", "--run", str(run_dir)]) == 0


def test_read_trajectory_rejects_repeated_snapshot_times(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "dup"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    mpath = run_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    first = next(e for e in manifest["outputs"] if e["path"].startswith("t="))
    manifest["outputs"].append(first)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="snapshot times must be strictly increasing"):
        read_trajectory(run_dir)
    capsys.readouterr()
    for command in (["symmetry", "--run", str(run_dir)], ["weakform", "--run", str(run_dir)]):
        assert main(command) == 2
        assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("setting", ["solver.cfl=NaN", "solver.breaking_slope_threshold=NaN",
                                     "solver.t_end=nan", "solver.dt_max=Infinity",
                                     "solver.dt_min=-Infinity", "solver.snapshot_interval=null"])
def test_cli_non_finite_solver_setting_exits_2(tmp_path, scenario_file, capsys, setting):
    run_dir = tmp_path / "run"
    argv = ["simulate", "--config", str(scenario_file), "--out", str(run_dir), "--set", setting]
    assert main(argv) == 2
    err = capsys.readouterr().err
    name = setting.split("=")[0]
    assert err.startswith(f"error: config: {name} must be a finite positive number")
    assert len(err.splitlines()) == 1
    assert not run_dir.exists()


@pytest.mark.parametrize("settings", [
    ["initial.amplitude=NaN"],
    ["initial.amplitude=Infinity"],
    ["initial.width=NaN"],
    ["initial.center=-Infinity"],
    ["initial.kind=mode", "initial.wavenumber=3", "initial.amplitude=NaN"],
    ["initial.kind=tw_profile", "initial.speed=NaN"],
    ["initial.kind=tw_profile", "initial.speed=1.2", "initial.center=NaN"],
    ["initial.amplitude=" + HUGE_INT],
    ["initial.width=-" + HUGE_INT],
    ["initial.center=" + HUGE_INT],
    ["initial.kind=tw_profile", "initial.speed=" + HUGE_INT],
])
def test_cli_non_finite_initial_setting_exits_2(tmp_path, scenario_file, capsys, settings):
    run_dir = tmp_path / "run"
    argv = ["simulate", "--config", str(scenario_file), "--out", str(run_dir)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 2
    err = capsys.readouterr().err
    name = settings[-1].split("=")[0]
    assert err.startswith(f"error: config: {name} must be a finite number")
    assert len(err.splitlines()) == 1
    assert not run_dir.exists()


@pytest.mark.parametrize("settings", [
    ["initial.kind=mode", "initial.wavenumber=Infinity"],
    ["initial.kind=tw_profile", "initial.speed=1.2", "initial.center=\"mid\""],
    ["initial.kind=mode", "initial.wavenumber=2.5"],
])
def test_cli_unparsable_initial_setting_exits_2(tmp_path, scenario_file, capsys, settings):
    argv = ["simulate", "--config", str(scenario_file), "--out", str(tmp_path / "run")]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and len(err.splitlines()) == 1
    assert settings[-1].split("=")[0] in err


@pytest.mark.parametrize("command, flag", [
    ("tw", "--config"), ("tw", "--workers"), ("tw", "--set"),
    ("symmetry", "--config"), ("symmetry", "--seed"), ("symmetry", "--workers"),
    ("symmetry", "--set"),
    ("weakform", "--config"), ("weakform", "--workers"), ("weakform", "--set"),
    ("simulate", "--workers"),
])
def test_cli_rejects_flags_a_command_does_not_read(tmp_path, capsys, command, flag):
    required = {
        "tw": ["--speed", "1.2"],
        "symmetry": ["--run", str(tmp_path)],
        "weakform": [],
        "simulate": ["--config", str(tmp_path / "s.json")],
    }[command]
    with pytest.raises(SystemExit) as info:
        main([command, *required, flag, "1", "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["tw", "--speed", "1.2"],
    ["simulate", "--config", "missing.json"],
    ["weakform", "--profile", "missing"],
    ["sweep", "--config", "missing.json"],
])
def test_cli_negative_seed_exits_2(tmp_path, capsys, command):
    assert main([*command, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: --seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_cli_blow_up_keeps_the_run(tmp_path, capsys, monkeypatch):
    # with the error control off, a cap far beyond stability (cfl = 5) blows
    # up within the first snapshot interval
    monkeypatch.setattr(evolution, "TOL", np.inf)
    doc = {
        "grid": {"n_points": 256, "length": 40.0},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5},
        "solver": {"t_end": 5.0, "snapshot_interval": 0.5, "cfl": 5,
                   "dt_max": 0.2, "breaking_slope_threshold": 1e300},
    }
    cfg = tmp_path / "blow.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert "termination: blow_up" in capsys.readouterr().out
    traj, manifest = read_trajectory(run_dir)
    assert manifest["termination"] == "blow_up"
    assert traj.termination.value == "blow_up"
    assert len(traj.snapshots) >= 2 and 0.0 < traj.times()[-1] < 0.5
    assert all(np.all(np.isfinite(s.u.values)) for s in traj.snapshots)
    assert verify_manifest(run_dir)


@pytest.mark.parametrize("rows", [5, 1, 0])
def test_truncated_snapshot_is_a_config_error(tmp_path, scenario_file, capsys, rows):
    run_dir = tmp_path / "cut"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    snap = sorted(run_dir.glob("t=*.csv"))[1]
    snap.write_text("".join(snap.read_text().splitlines(keepends=True)[:rows + 1]))
    capsys.readouterr()
    with pytest.raises(ConfigError, match=f"snapshot {snap.name} does not match its manifest digest"):
        read_trajectory(run_dir)
    assert main(["symmetry", "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: snapshot") and len(err.splitlines()) == 1


def _drop_termination(m):
    del m["termination"]


def _negative_cfl(m):
    m["scenario"]["solver"]["cfl"] = -1


def _unknown_termination(m):
    m["termination"] = "exploded"


@pytest.mark.parametrize("damage", [_drop_termination, "{not json", _negative_cfl,
                                    _unknown_termination])
def test_malformed_manifest_is_a_config_error(tmp_path, scenario_file, capsys, damage):
    run_dir = tmp_path / "bad_manifest"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir)]) == 0
    mpath = run_dir / "manifest.json"
    if isinstance(damage, str):
        mpath.write_text(damage)
    else:
        manifest = json.loads(mpath.read_text())
        damage(manifest)
        mpath.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="malformed run"):
        read_trajectory(run_dir)
    capsys.readouterr()
    for command in (["symmetry", "--run", str(run_dir)], ["weakform", "--run", str(run_dir)]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: malformed run") and "\n" not in err.strip()


def test_cli_weakform_short_run_exits_2(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "short"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(run_dir),
                 "--set", "solver.t_end=0.5", "--set", "solver.snapshot_interval=0.25"]) == 0
    assert len(read_trajectory(run_dir)[0].snapshots) == 3
    assert not (run_dir / "residuals.json").exists()
    capsys.readouterr()
    assert main(["weakform", "--run", str(run_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: config: the unsteady residual needs")


def test_cli_weakform_missing_profile_sidecar_exits_2(tmp_path, solitary_c12, capsys):
    prefix = tmp_path / "profile_c=1.2"
    write_profile(prefix, solitary_c12)
    Path(str(prefix) + ".json").unlink()
    with pytest.raises(ConfigError, match="cannot read profile"):
        read_profile(prefix)
    assert main(["weakform", "--profile", str(prefix)]) == 2
    assert capsys.readouterr().err.startswith("error: config: cannot read profile")


def test_cli_weakform_composite_profile_sidecar_exits_2(tmp_path, solitary_c12, capsys):
    # waves composed from segments exist only in the test oracles
    prefix = tmp_path / "profile_c=1.2"
    write_profile(prefix, solitary_c12)
    sidecar = Path(str(prefix) + ".json")
    sidecar.write_text(sidecar.read_text().replace('"smooth_solitary"', '"composite"'))
    assert main(["weakform", "--profile", str(prefix)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: cannot read profile")


@pytest.mark.parametrize("rows", [
    [(float(x), 0.1) for x in (*range(5), 5.5, *range(6, 32))],
    [(0.0, 0.1)],
    [],
], ids=["non-uniform", "one-row", "no-rows"])
def test_cli_weakform_profile_off_a_uniform_grid_exits_2(tmp_path, solitary_c12, capsys, rows):
    # the steady weak form integrates on the profile's own uniform grid of at least 16 points
    prefix = tmp_path / "profile_c=1.2"
    write_profile(prefix, solitary_c12)
    Path(str(prefix) + ".csv").write_text("xi,U\n" + "".join(f"{x},{u}\n" for x, u in rows))
    with pytest.raises(ConfigError, match="cannot read profile"):
        read_profile(prefix)
    assert main(["weakform", "--profile", str(prefix)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: cannot read profile")
    assert not (tmp_path / "residuals.json").exists()


@pytest.mark.parametrize("n_rows, refused", [(40, True), (67, True), (68, False)])
def test_cli_weakform_profile_too_short_for_a_bump_exits_2(tmp_path, solitary_c12, capsys,
                                                           n_rows, refused):
    # the narrowest bump spans 2 * 33 sample spacings, which 67 samples cannot hold
    prefix = tmp_path / "profile_c=1.2"
    write_profile(prefix, solitary_c12)
    Path(str(prefix) + ".csv").write_text(
        "xi,U\n" + "".join(f"{0.25 * i},0.1\n" for i in range(n_rows)))
    code = main(["weakform", "--profile", str(prefix)])
    err = capsys.readouterr().err.splitlines()
    if refused:
        assert code == 2 and len(err) == 1
        assert err[0] == ("error: config: the steady weak form needs a profile of at least 68 "
                          f"samples to hold a test bump, got {n_rows}")
        assert not (tmp_path / "residuals.json").exists()
    else:
        assert code == 0 and err == []
        assert (tmp_path / "residuals.json").exists()


@pytest.mark.parametrize(
    "error, kind",
    [
        (SupportError("bump support leaves the window"), "support"),
        (NonFiniteFieldError("field values must be finite"), "non-finite-field"),
        (SingularLineError("orbit reached the singular line"), "singular-line"),
        (DerivativeOrderError("derivative order must be 1, 2 or 3"), "derivative-order"),
        (MaseError("a package error of no narrower class"), "mase"),
    ],
)
def test_cli_other_package_errors_exit_5_without_traceback(monkeypatch, capsys, error, kind):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_tw", failing)
    assert main(["tw", "--speed", "1.2"]) == 5
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {kind}: {error}"]
    assert "Traceback" not in err


def test_import_needs_no_scipy():
    # nor any other test dependency
    blocked = "import sys; sys.modules['scipy'] = None; import mase.cli"
    listed = ("import sys, mase.cli; "
              "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'pytest', 'hypothesis'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", blocked], env=env).returncode == 0
    out = subprocess.run([sys.executable, "-c", listed], env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "[]"


def test_cli_tw_profile_run_keeps_amplitude(tmp_path):
    doc = {
        "grid": {"n_points": 512, "length": 130.0},
        "initial": {"kind": "tw_profile", "speed": 1.2},
        "solver": {"t_end": 5.0, "snapshot_interval": 0.5},
    }
    cfg = tmp_path / "tw_run.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "tw_run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert json.loads((run_dir / "manifest.json").read_text())["termination"] == "completed"
    from mase.storage import read_columns_csv

    diag = read_columns_csv(run_dir / "diagnostics.csv")
    sup = diag["sup_norm"]
    assert np.max(np.abs(sup - sup[0])) / sup[0] < 1e-3
    assert main(["symmetry", "--run", str(run_dir)]) == 0
    verdict = json.loads((run_dir / "symmetry.json").read_text())
    assert verdict["verdict"] == "traveling_wave_consistent"
    assert abs(verdict["speed_estimate"] - 1.2) < 1e-3


def test_cli_out_root_env(tmp_path, scenario_file, monkeypatch):
    monkeypatch.setenv("MASE_OUT_ROOT", str(tmp_path / "root"))
    assert main(["simulate", "--config", str(scenario_file)]) == 0
    assert (tmp_path / "root" / "run" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["tw", "--speed", "1.2", "--out", "afile/x"],
    ["tw", "--speed", "1.2"],  # under MASE_OUT_ROOT=afile
    ["simulate", "--config", "scenario.json", "--out", "afile/x"],
    ["sweep", "--config", "sweep.json", "--out", "afile/x"],
    ["symmetry", "--run", "run", "--out", "afile/x"],
    ["weakform", "--run", "run", "--out", "afile/x"],
], ids=["tw", "tw-out-root", "simulate", "sweep", "symmetry", "weakform"])
def test_an_output_that_cannot_be_written_exits_2_in_one_line(tmp_path, scenario_file, capsys,
                                                              monkeypatch, argv):
    # afile is a regular file, so no directory can be made under it or in its place
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MASE_OUT_ROOT", "afile")
    Path("afile").write_text("")
    Path("sweep.json").write_text(json.dumps({"base": json.loads(scenario_file.read_text()),
                                              "sweep": {"initial.amplitude": [0.05]}}))
    if "run" in argv:
        assert main(["simulate", "--config", "scenario.json", "--out", "run"]) == 0

    def evolve(*args, **kwargs):
        raise AssertionError("evolved before the output was known to be writable")

    monkeypatch.setattr(evolution, "evolve", evolve)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: cannot write afile")
    assert Path("afile").read_text() == ""


def test_a_run_whose_manifest_is_a_directory_is_refused_in_one_line(tmp_path, capsys):
    # a read's OSError is a malformed run, not an output that cannot be written
    (tmp_path / "manifest.json").mkdir()
    for command in ("symmetry", "weakform"):
        assert main([command, "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: malformed run")


def test_a_run_directory_that_cannot_be_searched_is_refused_in_one_line(tmp_path, capsys):
    # looking for the manifest fails with ENAMETOOLONG under a name longer than any file system
    # allows, and with EACCES under a directory without search permission (not for a superuser)
    runs = [tmp_path / ("r" * 300)]
    locked = tmp_path / "locked"
    (locked / "run").mkdir(parents=True)
    if os.geteuid() != 0:
        runs.append(locked / "run")
    locked.chmod(0)
    try:
        for run in runs:
            for command in ("symmetry", "weakform"):
                assert main([command, "--run", str(run)]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: config: malformed run")
    finally:
        locked.chmod(0o700)


def test_a_failed_write_that_names_no_file_exits_2_in_one_line(tmp_path, capsys, monkeypatch):
    def disk_full(path, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    assert main(["tw", "--speed", "1.2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: cannot write: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize("argv, name, regularity", [
    (["--speed", "1200"], "profile_c=1200", "smooth_solitary"),
    (["--speed", "-3"], "profile_c=-3", "cusped"),
    (["--speed", "1.2", "--energy=-1.58e-4", "--wave", "periodic"], "profile_c=1.2_E=-0.000158",
     "smooth_periodic"),
])
def test_cli_tw_writes_the_wave_its_parameters_give(tmp_path, capsys, argv, name, regularity):
    assert main(["tw", *argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(f"profile written to {tmp_path / name}.csv ({regularity}, ")
    assert json.loads((tmp_path / f"{name}.json").read_text())["regularity"] == regularity


def test_cli_breaking_scenario_exits_0(tmp_path):
    doc = {
        "grid": {"n_points": 512, "length": 300.0},
        "initial": {"kind": "mode", "amplitude": 0.25, "wavenumber": 1},
        "solver": {"t_end": 40.0, "snapshot_interval": 1.0,
                   "breaking_slope_threshold": 0.055},
        "analysis": {"breaking": True},
    }
    cfg = tmp_path / "breaking.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "brun"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["termination"] == "breaking_detected"
    breaking = json.loads((run_dir / "breaking.json").read_text())
    assert breaking["detected"] is True


# ---------------------------------------------------------------------------
# sweep


def _sweep_config(tmp_path):
    doc = {
        "command": "simulate",
        "base": {
            "grid": {"n_points": 128, "length": 40.0},
            "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
            "solver": {"t_end": 0.5, "snapshot_interval": 0.25},
            "analysis": {},
        },
        "sweep": {"initial.amplitude": [0.02, 0.05, 0.08]},
    }
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(doc))
    return p


def _tree_digest(root: Path, skip=("run.log",)) -> dict:
    from oracles import sha256_file

    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = sha256_file(p)
    return out


def test_sweep_single_point_matches_simulate(tmp_path):
    doc = {
        "command": "simulate",
        "base": json.loads((_sweep_config(tmp_path)).read_text())["base"],
        "sweep": {"initial.amplitude": [0.05]},
    }
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(doc))
    sweep_dir = tmp_path / "sweep_one"
    assert main(["sweep", "--config", str(cfg), "--out", str(sweep_dir)]) == 0

    plain = tmp_path / "plain"
    sc = tmp_path / "plain.json"
    sc.write_text(json.dumps(doc["base"]))
    assert main(["simulate", "--config", str(sc), "--out", str(plain)]) == 0

    assert _tree_digest(sweep_dir / "point_0000") == _tree_digest(plain)


def test_a_sweep_point_run_log_says_how_its_row_stepped(tmp_path):
    # the three points step as one batch; each row keeps its own count
    cfg = _sweep_config(tmp_path)
    doc = json.loads(cfg.read_text())
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    point = dict(doc["base"], initial=dict(doc["base"]["initial"], amplitude=0.08))
    assert step_line(tmp_path / "s" / "point_0002") == expected_step_line(point)


def test_sweep_deterministic_across_workers(tmp_path):
    cfg = _sweep_config(tmp_path)
    d1 = tmp_path / "s1"
    d4 = tmp_path / "s4"
    assert main(["sweep", "--config", str(cfg), "--out", str(d1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(d4), "--workers", "4"]) == 0
    assert _tree_digest(d1) == _tree_digest(d4)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_with_fewer_than_one_worker_exits_2(tmp_path, capsys, workers):
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(_sweep_config(tmp_path)), "--out", str(out),
                 "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: config: --workers must be at least 1, got {workers}"]
    assert not out.exists()


def test_sweep_starts_at_most_one_worker_per_cpu(tmp_path, monkeypatch):
    pools = []

    class InProcessPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    # the host has 64 CPUs, of which this process may run on one, then two
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = _sweep_config(tmp_path)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        out = tmp_path / f"s{len(cpus)}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "64"]) == 0
    assert pools == [2]  # one CPU runs its one chunk in-process, with no pool
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "w1")]) == 0
    assert _tree_digest(tmp_path / "s1") == _tree_digest(tmp_path / "w1")
    assert _tree_digest(tmp_path / "s2") == _tree_digest(tmp_path / "w1")


def test_sweep_batches_each_grid_and_records_invalid_points_for_any_workers(tmp_path, capsys):
    doc = json.loads(_sweep_config(tmp_path).read_text())
    doc["sweep"] = {"grid.n_points": [128, 256], "initial.amplitude": [0.02, 0.08],
                    "initial.width": [2.0, 40.0]}
    cfg = tmp_path / "grids.json"
    cfg.write_text(json.dumps(doc))
    trees = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)]) == 0
        trees.append(_tree_digest(out))
    assert trees[0] == trees[1] == trees[2]
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    status = rows[0].index("status")
    assert [r[status] for r in rows[1:]] == ["ok", "error"] * 4

    # point 1 (N=128, amplitude 0.02, width 40) records the error simulate prints for it
    sc = tmp_path / "plain.json"
    sc.write_text(json.dumps(dict(doc["base"], initial=dict(doc["base"]["initial"], amplitude=0.02,
                                                             width=40.0))))
    capsys.readouterr()
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path / "wide")]) == 2
    assert rows[2][-1] == capsys.readouterr().err.strip().removeprefix("error: config: ")
    assert rows[2][-1] == "gaussian width 40.0 must lie in (0, length)"

    # point 6 (N=256, amplitude 0.08) shares a batch with point 4 for
    # --workers 1 and 2 and runs alone for 3; it equals its plain run
    plain = tmp_path / "plain"
    point = dict(doc["base"], grid={"n_points": 256, "length": 40.0},
                 initial=dict(doc["base"]["initial"], amplitude=0.08))
    sc.write_text(json.dumps(point))
    assert main(["simulate", "--config", str(sc), "--out", str(plain)]) == 0
    assert _tree_digest(out / "point_0006") == _tree_digest(plain)


def test_sweep_tw_existence_table(tmp_path):
    doc = {
        "command": "tw",
        "base": {"speed": 1.2, "wave": "auto"},
        "sweep": {"speed": [0.5, 1.2]},
    }
    cfg = tmp_path / "twsweep.json"
    cfg.write_text(json.dumps(doc))
    sweep_dir = tmp_path / "tws"
    assert main(["sweep", "--config", str(cfg), "--out", str(sweep_dir)]) == 0
    table = (sweep_dir / "aggregate.csv").read_text().splitlines()
    assert table[0].startswith("point,speed,status")
    rows = {ln.split(",")[1]: ln for ln in table[1:]}
    assert "error" in rows["0.5"]
    assert "smooth_solitary" in rows["1.2"]


def test_sweep_tw_non_numeric_point_is_recorded_as_error(tmp_path):
    cfg = tmp_path / "twbad.json"
    cfg.write_text(json.dumps({"command": "tw", "base": {"speed": 1.2},
                               "sweep": {"speed": ["abc", 1.2]}}))
    sweep_dir = tmp_path / "twbad"
    assert main(["sweep", "--config", str(cfg), "--out", str(sweep_dir)]) == 0
    rows = (sweep_dir / "aggregate.csv").read_text().splitlines()[1:]
    assert rows[0].startswith('point_0000,"""abc""",error,') and "speed must be a finite number" in rows[0]
    assert ",ok,smooth_solitary," in rows[1]


def test_sweep_aggregate_has_one_field_per_column_for_list_values(tmp_path):
    # a bare "[1, 2]" would read as two fields and move every later column
    doc = json.loads(_sweep_config(tmp_path).read_text())
    doc["sweep"] = {"initial.amplitude": [0.05, [1, 2]]}
    cfg = tmp_path / "lists.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "lists"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "aggregate.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)] * 2
    table = [dict(zip(header, row)) for row in rows]
    assert [row["initial.amplitude"] for row in table] == ["0.05", "[1, 2]"]
    assert [row["status"] for row in table] == ["ok", "error"]
    assert table[0]["termination"] == "completed"
    assert "initial.amplitude must be a finite number" in table[1]["error"]


def test_sweep_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "simulate", "base": {}, "sweep": {}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("value", ["NaN", "-Infinity", HUGE_INT], ids=["nan", "-inf", "huge-int"])
def test_sweep_non_finite_value_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "sweep.json"
    cfg.write_text('{"base": {}, "sweep": {"initial.amplitude": [0.01, %s]}}' % value)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: sweep.initial.amplitude must be a finite number")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_cli_simulate_degenerate_analysis_still_exits_0(tmp_path):
    # a constant run with symmetry analysis on completes; the report records
    # the degeneracy instead of failing the run
    doc = {
        "grid": {"n_points": 64, "length": 20.0},
        "initial": {"kind": "zero"},
        "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
        "analysis": {"symmetry": True},
    }
    cfg = tmp_path / "zero_sym.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "zsym"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    rep = json.loads((run_dir / "symmetry.json").read_text())
    assert "error" in rep


def test_cli_simulate_dt_underflow_exits_0(tmp_path):
    doc = {
        "grid": {"n_points": 64, "length": 20.0},
        "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
        "solver": {"t_end": 1.0, "snapshot_interval": 0.25,
                   "dt_min": 0.5, "dt_max": 1.0},
        "analysis": {"symmetry": True, "weakform": True},
    }
    cfg = tmp_path / "underflow.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "uf"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["termination"] == "dt_underflow"
