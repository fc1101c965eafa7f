"""Run-directory serialization: CSV snapshots, JSON manifests, digests.

All numeric CSV output carries 12 significant digits; JSON is pretty-printed
with sorted keys.  A run directory records each fact once: a snapshot's
exact time in its name (``t=<repr(time)>.csv``), the grid in the manifest's
scenario, and the bytes of each file in the manifest's sha256 digest, which
the writer returns as it writes them.  An analysis report written into the
run later updates its own entry (``record_output``), and ``read_trajectory``
checks every listed file against its digest before parsing a snapshot's
``u``.  Volatile metadata (wall clock, tool version, how the run stepped)
goes to run.log, outside the manifest, so repeated runs produce
byte-identical CSV/JSON.  A traveling-wave profile records each fact once
too: its CSV holds ``U`` alone, and its JSON sidecar holds the wave's
parameters and the exact ``spacing`` of its grid (sample i of n at
``(i - n//2) * spacing``).  Every wave is even about xi = 0, so its CSV is
written from its half: each distinct value is formatted once.
``read_profile`` also reads an ``xi,U`` CSV.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ConfigError, number
from .evolution import SolverConfig, Termination, Trajectory
from .grid import Field, Grid, State

if TYPE_CHECKING:  # the analyses' modules load with the commands that run them
    from .symmetry import SymmetryReport
    from .traveling_wave import TWProfile
    from .weakform import ResidualReport

FMT = "%.12g"


def write_json(path: Path, obj) -> str:
    """Write ``obj`` as sorted, indented JSON; returns the sha256 of the bytes written."""
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> str:
    """Write text without newline translation; returns the sha256 of the bytes written."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_columns_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> str:
    """Write equal-length columns as CSV; returns the sha256 of the bytes written."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join([FMT] * table.shape[1]) + "\n"
    return _write_text(path, ",".join(header) + "\n"
                       + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def read_columns_csv(path: Path, require: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """Columns of a header-plus-numbers CSV file by name (``_parse_columns``);
    an unreadable or malformed file raises ConfigError."""
    try:
        return _parse_columns(path.read_text(), require)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from None


def _parse_columns(text: str, require: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Columns of a header-plus-numbers CSV text by name.

    Each number parses to the double ``float()`` gives.  A non-numeric cell,
    a row whose length differs from the header's, or a missing ``require``d
    column raises ValueError.
    """
    header, *rows = text.strip().splitlines() or [""]
    names = header.split(",")
    data = (np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            if rows else np.empty((0, len(names))))
    if data.shape[1] != len(names):
        raise ValueError(f"{data.shape[1]} values per row under {len(names)} header names")
    missing = [name for name in require if name not in names]
    if missing:
        raise ValueError(f"no {', '.join(missing)} column")
    return {name: data[:, i] for i, name in enumerate(names)}


def snapshot_filename(time: float) -> str:
    """``t=<repr(time)>.csv``: the shortest string that reads back as ``time``."""
    return f"t={time!r}.csv"


def is_snapshot_name(name: str) -> bool:
    """Whether ``read_trajectory`` reads a listed file of this name as a snapshot."""
    return name.startswith("t=") and name.endswith(".csv")


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory(
    run_dir: Path,
    traj: Trajectory,
    scenario: dict,
    wall_clock: float = 0.0,
    extra_outputs: dict[str, str] | None = None,
) -> dict:
    """Write the snapshots, diagnostics.csv, manifest.json and run.log; returns the manifest.

    The manifest also lists ``extra_outputs``, reports in ``run_dir`` by name
    and digest.  ``read_trajectory`` needs the ``scenario``'s grid and solver.
    diagnostics.csv's max_slope column is ``traj.max_slopes``, the slopes
    evolve checked, so a trajectory without them raises ValueError.
    """
    if traj.max_slopes is None:
        raise ValueError("write_trajectory writes a trajectory from evolve, with its max_slopes")
    run_dir.mkdir(parents=True, exist_ok=True)
    digests = dict(extra_outputs or {})
    for s in traj.snapshots:
        name = snapshot_filename(s.time)
        digests[name] = write_columns_csv(run_dir / name, ["u"], [s.u.values])

    digests["diagnostics.csv"] = write_columns_csv(
        run_dir / "diagnostics.csv", ["t", "mean", "sup_norm", "max_slope"],
        [traj.times(), [s.u.mean() for s in traj.snapshots],
         [s.u.sup_norm() for s in traj.snapshots], traj.max_slopes])

    manifest = {
        "schema": "mase/run/v1",
        "scenario": scenario,
        "tool_version": __version__,
        "termination": traj.termination.value,
        "outputs": [{"path": p, "sha256": d} for p, d in sorted(digests.items())],
    }
    write_json(run_dir / "manifest.json", manifest)
    log = f"tool_version={__version__}\nwall_clock_seconds={wall_clock:.3f}\n"
    if traj.steps is not None:
        st = traj.steps
        log += (f"steps accepted={st.accepted} rejected={st.rejected} "
                f"dt_smallest={st.dt_smallest!r} dt_largest={st.dt_largest!r}\n")
    (run_dir / "run.log").write_text(log)
    return manifest


def record_output(run_dir: Path, name: str, digest: str) -> None:
    """Set the manifest entry of ``name``, a file just written into ``run_dir``, to ``digest``."""
    mpath = run_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())  # read_trajectory has checked it
    digests = {e["path"]: e["sha256"] for e in manifest["outputs"]}
    digests[name] = digest
    manifest["outputs"] = [{"path": p, "sha256": d} for p, d in sorted(digests.items())]
    write_json(mpath, manifest)


def read_trajectory(run_dir: Path) -> tuple[Trajectory, dict]:
    """Trajectory and manifest of a run directory.

    A malformed manifest, a missing listed file, one whose bytes differ from
    its digest, a snapshot that does not fit the grid, and a time listed twice
    raise ConfigError.
    """
    mpath = run_dir / "manifest.json"
    try:
        manifest = json.loads(mpath.read_text())
        grid = Grid(**manifest["scenario"]["grid"])
        config = SolverConfig(**manifest["scenario"]["solver"])
        termination = Termination(manifest["termination"])
        listed = [(e["path"], e["sha256"]) for e in manifest["outputs"]]
        times = {name: float(name[2:-4]) for name, _ in listed if is_snapshot_name(name)}
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"no manifest.json in {run_dir}") from None
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed run {run_dir}: {type(exc).__name__}: {exc}") from None
    snaps = []
    for name, digest in listed:
        kind = "snapshot" if name in times else "output"
        try:
            data = (run_dir / name).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read {kind} {name}: {exc}") from None
        if hashlib.sha256(data).hexdigest() != digest:
            raise ConfigError(f"{kind} {name} does not match its manifest digest")
        if name not in times:
            continue
        try:
            u = _parse_columns(data.decode(), require=("u",))["u"]
            snaps.append(State(times[name], Field(grid, u)))
        except ValueError as exc:
            raise ConfigError(f"snapshot {name}: {exc}") from None
    snaps.sort(key=lambda s: s.time)
    return Trajectory(tuple(snaps), config, termination), manifest


# ---------------------------------------------------------------------------
# profiles and reports


def write_profile(prefix: Path, profile: TWProfile, extras: dict | None = None) -> None:
    """Write ``prefix``.csv, the one column ``U``, and the JSON sidecar ``prefix``.json.

    The samples lie on the constructors' grid (``centred_grid``), so the
    sidecar's ``spacing``, the grid's sample n//2 + 1 written by ``repr``,
    records ``xi`` exactly.  The values are even about sample n//2 bit for
    bit, so the n//2 + 1 distinct ones (``_half``) are formatted once and
    their lines mirrored: the bytes ``write_columns_csv`` writes.  A profile
    off that grid or not even raises ValueError.
    """
    from .traveling_wave import _half, _unfold, centred_grid

    n = len(profile.xi)
    spacing = float(profile.xi[n // 2 + 1])
    if not np.array_equal(profile.xi, centred_grid(n, spacing)):
        raise ValueError("a profile is written on the grid (i - n//2) * spacing")
    half = _half(profile.values)
    if _unfold(half, n, 1.0).tobytes() != profile.values.tobytes():
        raise ValueError("a profile is written even about xi = 0, bit for bit")
    lines = ((FMT + "\n") * len(half) % tuple(half.tolist())).splitlines(keepends=True)
    edge = 1 - n % 2  # as _unfold orders them
    _write_text(Path(str(prefix) + ".csv"),
                "".join(["U\n", *lines[:edge], *lines[:edge:-1], *lines[edge:]]))
    sidecar = {
        "speed": profile.params.speed,
        "integration_constant": profile.params.integration_constant,
        "energy": profile.params.energy,
        "regularity": profile.regularity.value,
        "period": profile.period,
        "spacing": spacing,
    }
    if extras:
        sidecar.update(extras)
    write_json(Path(str(prefix) + ".json"), sidecar)


def read_profile(prefix: Path) -> TWProfile:
    """Profile from ``prefix``.csv and its JSON sidecar.

    ``xi`` is the CSV's column where it has one (profiles written before the
    CSV held ``U`` alone, or by hand), else the grid of the sidecar's
    ``spacing``.  A missing or malformed file or sidecar, a ``spacing`` or
    ``period`` that is not a positive number, and samples the steady weak
    form cannot integrate on raise ConfigError.
    """
    from .traveling_wave import Regularity, TWParams, TWProfile, centred_grid
    from .weakform import _profile_grid

    cols = read_columns_csv(Path(str(prefix) + ".csv"), require=("U",))
    try:
        sidecar = json.loads(Path(str(prefix) + ".json").read_text())
        params = TWParams(
            sidecar["speed"], sidecar["integration_constant"], sidecar["energy"]
        )
        values = cols["U"]
        xi = cols.get("xi")
        if xi is None:
            xi = centred_grid(len(values), number("spacing", sidecar.get("spacing"), positive=True))
        period = sidecar.get("period")
        profile = TWProfile(
            params=params,
            xi=xi,
            values=values,
            regularity=Regularity(sidecar["regularity"]),
            period=None if period is None else number("period", period, positive=True),
        )
        _profile_grid(profile)  # the uniform grid the steady weak form integrates on
        return profile
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
