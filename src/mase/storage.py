"""Run-directory serialization: CSV snapshots, JSON manifests, digests.

All numeric CSV output carries 12 significant digits; JSON is pretty-printed
with sorted keys.  Every file a command writes is listed in manifest.json
with its sha256 digest.  Volatile metadata (wall clock, tool invocation) goes
to run.log, a plain-text file outside the manifest, so repeated runs produce
byte-identical CSV/JSON.

A CSV file is formatted in one string operation and written once, without
newline translation; ``write_columns_csv`` returns the sha256 of exactly the
bytes it wrote, and ``write_trajectory`` builds the manifest from those
digests instead of reading the snapshots back.  Only the JSON reports and
``verify_manifest`` hash files from disk.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .evolution import SolverConfig, Termination, Trajectory, _series, _sup_norms
from .grid import Field, Grid, State
from .symmetry import SymmetryReport
from .traveling_wave import Regularity, TWParams, TWProfile
from .weakform import ResidualReport

FMT = "%.12g"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> str:
    """Write text without newline translation; returns the sha256 of the bytes written."""
    path.write_text(text, encoding="utf-8", newline="")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_columns_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> str:
    """Write equal-length columns as CSV; returns the sha256 of the bytes written."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join([FMT] * table.shape[1]) + "\n"
    return _write_text(path, ",".join(header) + "\n"
                       + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def read_columns_csv(path: Path, require: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """Columns of a header-plus-numbers CSV by name.

    Each number parses to the double ``float()`` gives.  An unreadable file, a
    non-numeric cell, a row whose length differs from the header's, or a
    missing ``require``d column raises ConfigError.
    """
    try:
        header, _, body = path.read_text().strip().partition("\n")
        names = header.split(",")
        data = (np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
                if body else np.empty((0, len(names))))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from None
    if data.shape[1] != len(names):
        raise ConfigError(
            f"CSV {path} has {data.shape[1]} values per row under {len(names)} header names"
        )
    missing = [name for name in require if name not in names]
    if missing:
        raise ConfigError(f"CSV {path} lacks column(s) {', '.join(missing)}")
    return {name: data[:, i] for i, name in enumerate(names)}


def snapshot_filename(time: float) -> str:
    return f"t={time:.6f}.csv"


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory(
    run_dir: Path,
    traj: Trajectory,
    scenario: dict,
    wall_clock: float = 0.0,
    extra_outputs: list[Path] | None = None,
) -> dict:
    """Write the snapshots, diagnostics.csv, manifest.json and run.log; returns the manifest."""
    names = [snapshot_filename(s.time) for s in traj.snapshots]
    for a, b in zip(names, names[1:]):  # times increase, so a clash is adjacent
        if a == b:
            raise ConfigError(
                f"snapshot times closer than 1e-6 share the file name {a}; "
                "widen solver.snapshot_interval"
            )
    run_dir.mkdir(parents=True, exist_ok=True)
    digests = {p.name: sha256_file(p) for p in extra_outputs or []}
    # every snapshot shares the x column: it is formatted once, into the
    # row template that each snapshot's u values fill
    template = "x,u\n" + "".join([f"{FMT % x},{FMT}\n" for x in traj.grid.points.tolist()])
    for name, s in zip(names, traj.snapshots):
        digests[name] = _write_text(run_dir / name, template % tuple(s.u.values.tolist()))

    means = _series(traj.snapshots, lambda values: np.mean(values, axis=-1))
    digests["diagnostics.csv"] = write_columns_csv(
        run_dir / "diagnostics.csv", ["t", "mean", "sup_norm", "max_slope"],
        [traj.times(), means, _series(traj.snapshots, _sup_norms), traj.max_slopes])

    manifest = {
        "schema": "mase/run/v1",
        "scenario": scenario,
        "tool_version": __version__,
        "termination": traj.termination.value,
        "outputs": [{"path": p, "sha256": d} for p, d in sorted(digests.items())],
    }
    write_json(run_dir / "manifest.json", manifest)
    (run_dir / "run.log").write_text(
        f"tool_version={__version__}\nwall_clock_seconds={wall_clock:.3f}\n"
    )
    return manifest


def read_trajectory(run_dir: Path) -> tuple[Trajectory, dict]:
    """Trajectory and manifest of a run directory; a malformed manifest raises ConfigError."""
    mpath = run_dir / "manifest.json"
    if not mpath.exists():
        raise ConfigError(f"no manifest.json in {run_dir}")
    try:
        manifest = json.loads(mpath.read_text())
        config = SolverConfig(**manifest["scenario"]["solver"])
        termination = Termination(manifest["termination"])
        names = [entry["path"] for entry in manifest["outputs"]]
        timed = [(name, float(name[2:-4])) for name in names
                 if name.startswith("t=") and name.endswith(".csv")]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed run {run_dir}: {type(exc).__name__}: {exc}") from None
    snaps = []
    for name, t in timed:
        cols = read_columns_csv(run_dir / name, require=("x", "u"))
        x = cols["x"]
        try:
            grid = Grid(len(x), float(x[-1] + (x[1] - x[0])))
            snaps.append(State(t, Field(grid, cols["u"])))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"snapshot {name} is not a periodic grid sample: {exc}") from None
    snaps.sort(key=lambda s: s.time)
    for a, b in zip(snaps, snaps[1:]):
        if not a.time < b.time:
            raise ConfigError(f"run lists snapshot time {b.time:.6f} more than once")
        if a.u.grid != b.u.grid:
            raise ConfigError(
                f"snapshots t={a.time:.6f} and t={b.time:.6f} do not share one grid")
    return Trajectory(tuple(snaps), config, termination), manifest


def verify_manifest(run_dir: Path) -> bool:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        p = run_dir / entry["path"]
        if not p.exists() or sha256_file(p) != entry["sha256"]:
            return False
    return True


# ---------------------------------------------------------------------------
# profiles and reports


def write_profile(prefix: Path, profile: TWProfile, extras: dict | None = None) -> list[Path]:
    csv_path = Path(str(prefix) + ".csv")
    json_path = Path(str(prefix) + ".json")
    write_columns_csv(csv_path, ["xi", "U"], [profile.xi, profile.values])
    sidecar = {
        "speed": profile.params.speed,
        "integration_constant": profile.params.integration_constant,
        "energy": profile.params.energy,
        "regularity": profile.regularity.value,
        "period": profile.period,
    }
    if extras:
        sidecar.update(extras)
    write_json(json_path, sidecar)
    return [csv_path, json_path]


def read_profile(prefix: Path) -> TWProfile:
    """Profile from ``prefix``.csv and its JSON sidecar; a missing or malformed one raises ConfigError."""
    cols = read_columns_csv(Path(str(prefix) + ".csv"), require=("xi", "U"))
    try:
        sidecar = json.loads(Path(str(prefix) + ".json").read_text())
        params = TWParams(
            sidecar["speed"], sidecar["integration_constant"], sidecar["energy"]
        )
        return TWProfile(
            params=params,
            xi=cols["xi"],
            values=cols["U"],
            regularity=Regularity(sidecar["regularity"]),
            period=sidecar.get("period"),
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read profile {prefix}: {type(exc).__name__}: {exc}") from None


def symmetry_report_dict(report: SymmetryReport) -> dict:
    s = report.axis_series
    return {
        "times": [float(t) for t in s.times],
        "axes": [float(a) for a in s.axes],
        "asymmetry": [float(a) for a in s.asymmetry],
        "lambda_dot": report.lambda_dot,
        "speed_estimate": report.speed_estimate,
        "fit_residual": report.fit_residual,
        "travel_error": report.travel_error,
        "verdict": report.verdict.value,
    }


def residual_report_dict(report: ResidualReport) -> dict:
    return {
        "normalization": report.normalization,
        "per_test_function": [
            {"test_function": desc, "residual": res}
            for desc, res in report.per_test_function
        ],
    }
