"""Command-line entry point.

Subcommands: simulate, tw, symmetry, weakform, sweep.  Scenario files are
JSON; ``--set key.path=value`` overrides win over the file.  Science
outcomes (including detected wave breaking) exit 0; configuration faults
exit 2, nonexistent traveling waves exit 3, degenerate symmetry inputs
exit 4 and every other package error exit 5, each with a one-line
``error: <kind>: <message>`` on stderr.  An output that cannot be written is
a configuration fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, ConstantFieldError, MaseError, NonexistenceError, number

if TYPE_CHECKING:
    from .scenarios import Scenario
    from .weakform import ResidualReport


def _out_root() -> Path:
    return Path(os.environ.get("MASE_OUT_ROOT", "."))


def _resolve_out(out: str | None, default_name: str) -> Path:
    return Path(out) if out else _out_root() / default_name


# ---------------------------------------------------------------------------
# simulate


def run_simulate(scenario: Scenario, run_dir: Path, seed: int = 0) -> dict:
    """Evolve a scenario and write the full run directory; returns headline stats."""
    from .evolution import evolve
    from .grid import State
    from .scenarios import build_initial_field

    t_start = time.perf_counter()
    run_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the evolution
    traj = evolve([State(0.0, build_initial_field(scenario))], scenario.solver)[0]
    return _write_run(scenario, traj, run_dir, seed, t_start)


def _write_run(scenario: Scenario, traj, run_dir: Path, seed: int, t_start: float) -> dict:
    """Run the scenario's analyses on its trajectory and write the run directory.

    ``t_start`` is when the work on this run began; run.log records the wall
    clock since then.
    """
    import dataclasses

    from .evolution import detect_breaking
    from .storage import residual_report_dict, symmetry_report_dict, write_json, write_trajectory
    from .symmetry import verify_theorem

    run_dir.mkdir(parents=True, exist_ok=True)
    extra: dict[str, str] = {}  # report name -> sha256 of its bytes
    analysis = scenario.analysis
    if analysis.get("breaking", False):
        rep = detect_breaking(traj)
        extra["breaking.json"] = write_json(run_dir / "breaking.json", {
            "detected": rep.detected,
            "t_detect": rep.t_detect if rep.detected else None,
        })
    if analysis.get("symmetry", False):
        # given tolerances, checked as the scenario loaded; verify_theorem's defaults otherwise
        tols = {key: analysis[key] for key in ("symmetry_tol", "travel_tol") if key in analysis}
        try:
            report = symmetry_report_dict(verify_theorem(traj, **tols))
        except (ConstantFieldError, ValueError) as exc:
            # degenerate or truncated runs still complete; the dedicated
            # symmetry command surfaces the error as an exit code
            report = {"error": str(exc)}
        extra["symmetry.json"] = write_json(run_dir / "symmetry.json", report)
    if analysis.get("weakform", False) and len(traj.snapshots) >= 4:
        extra["residuals.json"] = write_json(run_dir / "residuals.json",
                                             residual_report_dict(_unsteady_report(traj, seed)))

    wall = time.perf_counter() - t_start
    write_trajectory(run_dir, traj, dataclasses.asdict(scenario), wall, extra)

    final = traj.snapshots[-1]
    return {
        "termination": traj.termination.value,
        "t_final": final.time,
        "sup_final": final.u.sup_norm(),
        "max_slope_final": float(traj.max_slopes[-1]),
        "mean_drift": abs(final.u.mean() - traj.snapshots[0].u.mean()),
    }


def _unsteady_report(traj, seed: int, n_bumps: int = 5) -> ResidualReport:
    import numpy as np

    from .weakform import (ResidualReport, SeededUniform, TestFunction, random_bumps,
                           unsteady_weak_residual)

    rng = SeededUniform(seed)
    grid = traj.grid
    times = traj.times()
    margin = grid.length / 16.0
    bumps = random_bumps(rng, n_bumps, (margin, grid.length - margin),
                         (grid.length / 16.0, grid.length / 10.0))
    t_lo, t_hi = times[1], times[-2]
    rho = TestFunction(0.5 * (t_lo + t_hi), 0.45 * (t_hi - t_lo))
    residuals = unsteady_weak_residual(traj, bumps, rho)
    entries = [({"phi": phi.descriptor(), "rho": rho.descriptor()}, res)
               for phi, res in zip(bumps, residuals)]
    mean_mass = float(np.mean([phi.mass() * rho.mass() for phi in bumps]))
    return ResidualReport(tuple(entries), mean_mass)


# the fewest samples whose window holds a whole bump of the widest short-window
# width, 1.01 * 33 h on either side of its centre: 67 spacings >= 66.66 h
_MIN_STEADY_SAMPLES = 68


def _steady_report(profile, seed: int, n_bumps: int = 5) -> ResidualReport:
    """Steady residuals against random bumps inside the sampled window.

    Widths lie in [max(span/24, 33 h), min(span/6, 512 h)] for sample spacing h;
    a profile of fewer than _MIN_STEADY_SAMPLES samples holds no such bump and
    raises ConfigError.
    """
    from .weakform import SeededUniform, random_bumps, steady_residual_report

    if len(profile.xi) < _MIN_STEADY_SAMPLES:
        raise ConfigError(f"the steady weak form needs a profile of at least {_MIN_STEADY_SAMPLES} "
                          f"samples to hold a test bump, got {len(profile.xi)}")
    rng = SeededUniform(seed)
    lo, hi = profile.xi[0], profile.xi[-1]
    h = profile.xi[1] - profile.xi[0]
    width_lo = max((hi - lo) / 24.0, 33 * h)
    width_hi = min((hi - lo) / 6.0, 512 * h)
    bumps = random_bumps(rng, n_bumps, (lo, hi), (width_lo, max(width_lo * 1.01, width_hi)))
    return steady_residual_report(profile, bumps)


def cmd_simulate(args) -> int:
    from .scenarios import load_scenario

    scenario = load_scenario(args.config, args.set)
    run_dir = _resolve_out(args.out, "run")
    stats = run_simulate(scenario, run_dir, args.seed)
    print(f"run written to {run_dir} (termination: {stats['termination']})")
    return 0


# ---------------------------------------------------------------------------
# tw


def run_tw(doc: dict, out_prefix: Path, seed: int = 0) -> dict:
    """Construct the requested traveling wave and write CSV + JSON sidecar."""
    import numpy as np

    from .storage import residual_report_dict, write_json, write_profile
    from .traveling_wave import (TWParams, _beyond_double_range, level_roots, peaked_composite,
                                 periodic_profile, singular_line, solitary_profile)

    speed = number("speed", doc.get("speed"))
    a = number("integration_constant", doc.get("integration_constant", 0.0))
    e = number("energy", doc.get("energy", 0.0))
    wave = doc.get("wave", "auto")
    if wave not in ("auto", "solitary", "periodic", "peaked"):
        raise ConfigError(f"unknown wave kind {wave!r}")
    if wave == "auto":
        wave = "solitary" if (a == 0.0 and e == 0.0) else "periodic"
    # the solitary wave fixes A = E = 0 and the peaked one fixes E
    ignored = {"solitary": (("integration_constant", "-A", a), ("energy", "-E", e)),
               "peaked": (("energy", "-E", e),)}.get(wave, ())
    for name, flag, value in ignored:
        if value != 0.0:
            raise ConfigError(f"--wave {wave} ignores {name} ({flag}); got {value:g}, leave it 0")
    if wave == "solitary":
        profile = solitary_profile(speed)
    elif wave == "periodic":
        profile = periodic_profile(TWParams(speed, a, e))
    else:
        profile = peaked_composite(speed, a)

    params = profile.params
    # its sums can overflow where the wave itself does not
    with np.errstate(over="ignore", invalid="ignore"):
        report = _steady_report(profile, seed)
    if not np.all(np.isfinite([r for _, r in report.per_test_function])):
        raise _beyond_double_range(params)
    roots, tangent = level_roots(params)
    extras = {
        "turning_points": list(roots),
        "tangencies": list(tangent),
        "singular_line": singular_line(params),
        "max_steady_residual": report.max_residual(),
    }
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    write_profile(out_prefix, profile, extras)
    write_json(out_prefix.parent / (out_prefix.name + "_residuals.json"),
               residual_report_dict(report))
    return {
        "regularity": profile.regularity.value,
        "period": profile.period,
        "singular_line": extras["singular_line"],
        "max_residual": extras["max_steady_residual"],
    }


def cmd_tw(args) -> int:
    doc = {
        "speed": args.speed,
        "integration_constant": args.integration_constant,
        "energy": args.energy,
        "wave": args.wave,
    }
    out_prefix = _resolve_out(args.out, "tw") / _tw_name(
        args.speed, args.integration_constant, args.energy)
    info = run_tw(doc, out_prefix, args.seed)
    period = "-" if info["period"] is None else f"{info['period']:.6g}"
    print(
        f"profile written to {out_prefix}.csv ({info['regularity']}, period {period}, "
        f"max steady residual {info['max_residual']:.3e})"
    )
    return 0


def _tw_name(speed: float, a: float, e: float) -> str:
    """``profile_c=<c>[_A=<A>][_E=<E>]``, A and E only when nonzero.

    Each number is its shortest round-trip ``repr`` without a trailing
    ``.0``, so waves of different parameters never share a name.
    """
    def text(v: float) -> str:
        return repr(v).removesuffix(".0")

    return f"profile_c={text(speed)}" + "".join(
        f"_{flag}={text(v)}" for flag, v in (("A", a), ("E", e)) if v != 0.0)


# ---------------------------------------------------------------------------
# symmetry / weakform


def _write_report(path: Path, report: dict, run: Path | None = None) -> None:
    """Write an analysis report; one written into the ``run`` directory also
    updates its entry in the run's manifest, so the run stays verifiable."""
    from .storage import record_output, write_json

    inside = run is not None and path.parent.resolve() == run.resolve()
    if inside and path.name == "manifest.json":
        raise ConfigError("--out must not name the run's manifest.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = write_json(path, report)
    if inside:
        record_output(run, path.name, digest)


def cmd_symmetry(args) -> int:
    from .storage import read_trajectory, symmetry_report_dict
    from .symmetry import verify_theorem

    symmetry_tol = number("--symmetry-tol", args.symmetry_tol, positive=True)
    travel_tol = number("--travel-tol", args.travel_tol, positive=True)
    run = Path(args.run)
    traj, _ = read_trajectory(run)
    if len(traj.snapshots) < 3:
        raise ConfigError("run has fewer than 3 snapshots")
    rep = verify_theorem(traj, symmetry_tol=symmetry_tol, travel_tol=travel_tol)
    _write_report(Path(args.out) if args.out else run / "symmetry.json",
                  symmetry_report_dict(rep), run)
    print(
        f"verdict: {rep.verdict.value} (speed estimate {rep.speed_estimate:.6g}, "
        f"travel error {rep.travel_error:.3e})"
    )
    return 0


def cmd_weakform(args) -> int:
    from .storage import read_profile, read_trajectory, residual_report_dict

    if bool(args.run) == bool(args.profile):
        raise ConfigError("give exactly one of --run or --profile")
    if not 1 <= args.n_bumps <= 1000:  # each bump is one more pass over the samples
        raise ConfigError(f"--n-bumps must lie in [1, 1000], got {args.n_bumps}")
    if args.run:
        run = Path(args.run)
        traj, _ = read_trajectory(run)
        if len(traj.snapshots) < 4:
            raise ConfigError("the unsteady residual needs a run with at least 4 snapshots")
        report = _unsteady_report(traj, args.seed, args.n_bumps)
        _write_report(Path(args.out) if args.out else run / "residuals.json",
                      residual_report_dict(report), run)
    else:
        report = _steady_report(read_profile(Path(args.profile)), args.seed, args.n_bumps)
        _write_report(Path(args.out) if args.out else Path(args.profile).parent / "residuals.json",
                      residual_report_dict(report))
    print(f"max residual {report.max_residual():.3e} over {len(report.per_test_function)} test functions")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_point(chunk) -> list[tuple[int, dict]]:
    """Run one contiguous chunk of sweep points; the worker pool maps this.

    ``chunk`` is a list of (index, command, doc, out_dir, seed) points.
    Simulate points that share a grid and a solver evolve as one ensemble;
    each point's analyses and writes then run on its own.  A point that
    fails to parse or in its own analysis is recorded as that point's error.
    """
    from .evolution import evolve
    from .grid import State
    from .scenarios import build_initial_field, scenario_from_dict

    results = []
    groups: dict[tuple, list] = {}
    for index, command, doc, out_dir, seed in chunk:
        try:
            if command == "simulate":
                scenario = scenario_from_dict(doc)
                groups.setdefault((scenario.grid, scenario.solver), []).append(
                    (index, scenario, Path(out_dir), seed))
            elif command == "tw":
                results.append((index, _ok(run_tw(doc, Path(out_dir) / "profile", seed))))
            else:
                raise ConfigError(f"unknown sweep command {command!r}")
        except MaseError as exc:
            results.append((index, _failed(exc)))

    for (_, solver), points in groups.items():
        t_start = time.perf_counter()
        initials = [State(0.0, build_initial_field(sc)) for _, sc, _, _ in points]
        for (index, scenario, run_dir, seed), traj in zip(points, evolve(initials, solver)):
            try:
                results.append((index, _ok(_write_run(scenario, traj, run_dir, seed, t_start))))
            except MaseError as exc:
                results.append((index, _failed(exc)))
    return results


def _ok(stats: dict) -> dict:
    return {**stats, "status": "ok"}


def _failed(exc: MaseError) -> dict:
    return {"status": "error", "error": str(exc).replace("\n", " ")}


def cmd_sweep(args) -> int:
    from .scenarios import apply_overrides, read_config
    from .storage import FMT

    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    doc = read_config(args.config)
    if args.set:
        doc = apply_overrides(doc, args.set)
    command = doc.get("command", "simulate")
    base = doc.get("base")
    sweep = doc.get("sweep")
    if not isinstance(base, dict) or not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep config needs 'base' (object) and non-empty 'sweep' (object)")
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep values for {key!r} must be a non-empty list")
        for v in values:
            if type(v) in (int, float):  # strings, booleans and null are left to each point
                number(f"sweep.{key}", v)

    keys = sorted(sweep.keys())
    combos = list(product(*(sweep[k] for k in keys)))
    sweep_dir = _resolve_out(args.out, "sweep")
    sweep_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for i, combo in enumerate(combos):
        point_doc = apply_overrides(base, [f"{k}={json.dumps(v)}" for k, v in zip(keys, combo)])
        point_dir = sweep_dir / f"point_{i:04d}"
        tasks.append((i, command, point_doc, str(point_dir), args.seed))

    # at most one process per CPU this process may run on: more would only share the cores
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_chunks = min(args.workers, len(tasks), cpus or 1)
    chunks = [tasks[len(tasks) * j // n_chunks:len(tasks) * (j + 1) // n_chunks]
              for j in range(n_chunks)]
    if n_chunks == 1:
        done = [_sweep_point(chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # the modules the points import, loaded once here: forked workers inherit them
        from . import storage, symmetry, weakform

        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            done = list(pool.map(_sweep_point, chunks))
    results = {i: stats for chunk in done for i, stats in chunk}

    if command == "simulate":
        stat_cols = ["termination", "t_final", "sup_final", "max_slope_final", "mean_drift"]
    else:
        stat_cols = ["regularity", "period", "singular_line", "max_residual"]
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")  # quotes a cell holding a comma or a quote
    table.writerow(["point"] + keys + ["status"] + stat_cols + ["error"])
    for i, combo in enumerate(combos):
        stats = results[i]
        row = [f"point_{i:04d}"] + [json.dumps(v) for v in combo] + [stats.get("status", "error")]
        for col in stat_cols:
            v = stats.get(col)
            if isinstance(v, float):
                row.append(FMT % v)
            elif v is None:
                row.append("")
            else:
                row.append(str(v))
        row.append(stats.get("error", ""))
        table.writerow(row)
    (sweep_dir / "aggregate.csv").write_text(buf.getvalue())
    n_err = sum(1 for s in results.values() if s.get("status") != "ok")
    print(f"sweep of {len(combos)} points written to {sweep_dir} ({n_err} failures)")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mase",
        description="Numerical laboratory for a moderate-amplitude shallow-water wave equation",
    )
    parser.add_argument("--version", action="version", version=f"mase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, scenario=False, workers=False):
        """The shared flags a subcommand reads, and no others."""
        p.add_argument("--out", default=None, help="output directory (default under MASE_OUT_ROOT)")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized test-function families")
        if scenario:
            p.add_argument("--config", required=True, help="scenario (or sweep) JSON file")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override a config entry (repeatable; flags win)")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes for the sweep (at most one per CPU)")

    p = sub.add_parser("simulate", help="evolve a scenario and write a run directory")
    common(p, scenario=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("tw", help="construct a traveling-wave profile")
    # argparse's own rule (-2, -.5, -1.25) would read "-1.6e-4" as a flag
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    common(p)
    p.add_argument("--speed", "-c", type=float, required=True, help="wave speed c")
    p.add_argument("--integration-constant", "-A", type=float, default=0.0)
    p.add_argument("--energy", "-E", type=float, default=0.0)
    p.add_argument("--wave", choices=["auto", "solitary", "periodic", "peaked"], default="auto")
    p.set_defaults(fn=cmd_tw)

    p = sub.add_parser("symmetry", help="axis tracking and theorem verdict for a run")
    common(p, seed=False)
    p.add_argument("--run", required=True, help="run directory from simulate")
    p.add_argument("--symmetry-tol", type=float, default=1e-6)
    p.add_argument("--travel-tol", type=float, default=1e-3)
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("weakform", help="weak-form residuals for a run or a profile")
    common(p)
    p.add_argument("--run", default=None, help="run directory (unsteady residual)")
    p.add_argument("--profile", default=None, help="profile prefix (steady residual)")
    p.add_argument("--n-bumps", type=int, default=5)
    p.set_defaults(fn=cmd_weakform)

    p = sub.add_parser("sweep", help="run a parameter sweep of simulate or tw")
    common(p, scenario=True, workers=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except NonexistenceError as exc:
        print(f"error: nonexistence: {exc}", file=sys.stderr)
        return 3
    except ConstantFieldError as exc:
        print(f"error: degenerate: {exc}", file=sys.stderr)
        return 4
    except MaseError as exc:
        print(f"error: {_error_kind(exc)}: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:  # each read turns its OSError into a ConfigError, so this one is a write
        path = "" if exc.filename is None else f" {exc.filename}"
        print(f"error: config: cannot write{path}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def _error_kind(exc: MaseError) -> str:
    """Kebab-case kind from the class name: NonFiniteFieldError -> non-finite-field."""
    name = type(exc).__name__.removesuffix("Error")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


if __name__ == "__main__":
    sys.exit(main())
