"""One fresh interpreter that sets up a workload and measures it.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
after the imports, the input generation and one untimed warm-up operation it
prints ``ready <digest>``; it then reads ``run <seconds> <trace>`` from stdin
and answers with one ``result <json>`` line (anything else, or end of input,
makes it exit).  Everything mase itself prints goes to a throwaway buffer.

The loop is closed with one client: each operation starts when the previous
one has returned and been checked.  Every operation's outcome is checked
against fixed bounds taken from the acceptance suite and the README; a
failed check counts into ``failed`` and never stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import inputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
STEADY_RESIDUAL_BOUND = 1e-4   # acceptance 6: smooth steady weak residual
SPEED_ERR_BOUND = 1e-3         # acceptance 7: speed recovered by the symmetry verdict
SMOOTH = ("smooth_solitary", "smooth_periodic")


# One operation: run(tracer) does the work, check(outcome) returns an error or None.
Op = namedtuple("Op", "name run check")


class Workload:
    def __init__(self, name: str, data: dict, work: Path, seed: int):
        self.name, self.data, self.work, self.seed = name, data, work, seed
        self.quality: dict[str, float] = {}
        # cli-cold runs mase only in subprocesses, which trace themselves
        self.in_process = name != "cli-cold"
        self.ops: list[Op] = getattr(self, "_" + name.replace("-", "_"))()

    def _worst(self, key: str, value: float) -> None:
        self.quality[key] = max(self.quality.get(key, 0.0), value)

    # -- simulate-canonical ------------------------------------------------

    def _simulate_canonical(self) -> list[Op]:
        import mase.cli as cli
        from mase.scenarios import scenario_from_dict

        ops = []
        for spec in self.data["ops"]:
            scenario = scenario_from_dict(spec["scenario"])
            run_dir = self.work / spec["name"]

            def run(tr, scenario=scenario, run_dir=run_dir, seed=spec["seed"]):
                return cli.run_simulate(scenario, run_dir, seed)

            def check(stats, expect=spec["expect"], run_dir=run_dir):
                if stats["termination"] != expect["termination"]:
                    return f"termination {stats['termination']} != {expect['termination']}"
                sym = json.loads((run_dir / "symmetry.json").read_text())
                if "verdict" in expect and sym.get("verdict") != expect["verdict"]:
                    return f"verdict {sym.get('verdict')} != {expect['verdict']}"
                if "speed" in expect:
                    err = abs(sym["speed_estimate"] - expect["speed"])
                    self._worst("speed_err", err)
                    if not err < SPEED_ERR_BOUND:
                        return f"speed error {err:.3e} >= {SPEED_ERR_BOUND}"
                return None

            ops.append(Op(spec["name"], run, check))
        return ops

    # -- simulate-sweep ----------------------------------------------------

    def _simulate_sweep(self) -> list[Op]:
        import mase.cli as cli

        spec = self.data["ops"][0]
        config = self.work / "sweep.json"
        config.write_text(json.dumps(spec["config"]))
        out = self.work / "sweep"
        self.sweep_argv = ["sweep", "--config", str(config), "--seed", str(spec["seed"])]
        argv = self.sweep_argv + ["--out", str(out), "--workers", str(spec["workers"])]

        def run(tr):
            return cli.main(argv)

        def check(rc, expect=spec["expect"]):
            if rc != 0:
                return f"exit code {rc}"
            with open(out / "aggregate.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != expect["points"]:
                return f"{len(rows)} points in aggregate.csv, expected {expect['points']}"
            for row in rows:
                if row["status"] != "ok":
                    return f"{row['point']} failed: {row['error']}"
                if row["termination"] != expect["termination"]:
                    return f"{row['point']} termination {row['termination']}"
                n = len(list((out / row["point"]).glob("t=*.csv")))
                if n != expect["snapshots"]:
                    return f"{row['point']} has {n} snapshots, expected {expect['snapshots']}"
            return None

        return [Op("sweep", run, check)]

    def sweep_point_seconds(self) -> float:
        """Sum of per-point times of the same sweep run with one worker."""
        import mase.cli as cli

        original, times = cli._sweep_point, []

        def timed(task):
            start = time.perf_counter()
            try:
                return original(task)
            finally:
                times.append(time.perf_counter() - start)

        cli._sweep_point = timed
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(self.sweep_argv + ["--out", str(self.work / "sweep-1"),
                                                 "--workers", "1"])
        finally:
            cli._sweep_point = original
        if rc != 0:
            raise RuntimeError(f"one-worker sweep exited {rc}")
        return sum(times)

    # -- tw-sweep ----------------------------------------------------------

    def _tw_sweep(self) -> list[Op]:
        import mase.cli as cli
        from mase.errors import NonexistenceError

        ops = []
        for spec in self.data["ops"]:
            prefix = self.work / "tw" / spec["name"]

            def run(tr, doc=spec["doc"], prefix=prefix, seed=spec["seed"]):
                try:
                    return cli.run_tw(doc, prefix, seed)
                except NonexistenceError as exc:
                    return {"nonexistence": str(exc)}

            def check(info, expect=spec["expect"]):
                if expect == "nonexistence":
                    return None if "nonexistence" in info else "expected NonexistenceError"
                if "nonexistence" in info:
                    return f"unexpected nonexistence: {info['nonexistence']}"
                if info["regularity"] != expect:
                    return f"regularity {info['regularity']} != {expect}"
                if expect in SMOOTH:
                    res = abs(info["max_residual"])
                    self._worst("tw_residual_max", res)
                    if not res < STEADY_RESIDUAL_BOUND:
                        return f"steady residual {res:.3e} >= {STEADY_RESIDUAL_BOUND}"
                return None

            ops.append(Op(spec["name"], run, check))
        return ops

    # -- cli-cold ----------------------------------------------------------

    def _cli_cold(self) -> list[Op]:
        (self.work / "scenario.json").write_text(json.dumps(self.data["scenario"]))
        ops = []
        for spec in self.data["ops"]:
            argv = [a.replace("{work}", str(self.work)) for a in spec["argv"]]

            def run(tr, argv=argv, name=spec["name"]):
                if tr is None:
                    cmd = [sys.executable, "-m", "mase.cli", *argv]
                else:
                    export = os.path.join(tr.export_dir, f"cli-{tr.op}-{name}.json")
                    cmd = [sys.executable, str(HERE / "cli_boot.py"), export,
                           tr.stack[-1][5], str(tr.op), "--", *argv]
                return subprocess.run(cmd, capture_output=True, text=True, cwd=self.work,
                                      timeout=120)

            def check(proc, expect=spec["expect"]):
                if proc.returncode != expect["exit"]:
                    return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
                if expect["stdout"] not in proc.stdout:
                    return f"stdout lacks {expect['stdout']!r}: {proc.stdout.strip()[-200:]}"
                return None

            ops.append(Op(spec["name"], run, check))
        return ops


# ---------------------------------------------------------------------------
# measurement


class Runner:
    def __init__(self, workload: Workload):
        self.w = workload
        self.op_id = 0
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, op: Op, tr=None) -> float:
        """Run and check one operation; returns its latency in seconds."""
        self.op_id += 1
        frame = None
        if tr is not None:
            tr.op = self.op_id
            frame = tr.enter(f"op.{self.w.name}", "cli", True)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = op.run(tr)
            error = None
        except Exception as exc:  # a crashing operation is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if frame is not None:
            tr.exit(frame)
        if error is None:
            try:
                error = op.check(outcome)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
        return latency

    def one_pass(self, tr=None) -> list[float]:
        """Run every operation once, in order; returns their latencies in seconds."""
        return [self.call(op, tr) for op in self.w.ops]

    def passes(self, seconds: float, minimum: int, traced=None) -> list[list[float]]:
        """Repeat passes until the next one would overrun ``seconds``.

        ``traced``, if given, maps the pass index to a context manager that
        yields the pass's tracer.
        """
        out, start = [], time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            if traced is None:
                out.append(self.one_pass())
            else:
                with traced(len(out)) as tr:
                    out.append(self.one_pass(tr))
            now = time.perf_counter()
            if len(out) >= minimum and now - start + (now - pass_start) > seconds:
                return out


def typical_wall(passes: list[list[float]]) -> float:
    """Wall time of one pass: the sum over operations of each one's median latency.

    Other tenants of a shared machine slow random stretches of a run; a
    per-operation median discards those bursts where a median of whole-pass
    sums, with only a few passes, would not.
    """
    return sum(statistics.median(lat) for lat in zip(*passes))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_times(repeats: int = 3) -> tuple[float, float]:
    """Median ``import mase.cli`` and scipy import time, from ``-X importtime``."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mase.cli"],
                              capture_output=True, text=True, check=True, timeout=60)
        total, scipy = _parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def _parse_importtime(text: str) -> tuple[float, float]:
    """(cumulative time of the top-level mase imports, of the outermost scipy imports) in s."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    mase_us = sum(c for d, c, n in rows if d == 0 and n.split(".")[0] == "mase")
    scipy_us, stack = 0, []  # reversed post-order visits each parent before its children
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else False
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy_us += cumulative
        stack.append((depth, inside or is_scipy))
    return mase_us * 1e-6, scipy_us * 1e-6


def measure(w: Workload, seconds: float) -> dict:
    runner = Runner(w)
    return {
        "passes": runner.passes(seconds, 1),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "quality": w.quality,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(w: Workload, seconds: float, trace_dir: Path) -> dict:
    """Untraced passes for half the time, then traced passes for the other half."""
    import_s, import_scipy_s = import_times()
    runner = Runner(w)
    plain = runner.passes(seconds / 2, 1)
    pool_efficiency = 0.0
    if w.name == "simulate-sweep":
        pool_efficiency = w.sweep_point_seconds() / (2 * typical_wall(plain))

    tr = tracing.Tracer()
    if w.in_process:
        tr.install()
    states = []

    @contextlib.contextmanager
    def traced_pass(index):
        tr.reset()
        tr.export_dir = str(trace_dir / f"pass{index}")
        os.makedirs(tr.export_dir, exist_ok=True)
        yield tr
        states.append(tracing.merge([tr.state()] + tracing.read_exports(tr.export_dir)))

    try:
        traced = runner.passes(seconds / 2, 1, traced_pass)
    finally:
        tr.uninstall()

    layers = [tracing.layer_metrics(st) for st in states]
    metrics = {}
    for name in layers[0]:
        if name in tracing.COUNTS:
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.fmean(m[name] for m in layers)
    metrics.update({
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "cli.pool_efficiency": pool_efficiency,
        "trace.overhead_s": typical_wall(traced) - typical_wall(plain),
    })
    with open(trace_dir / "spans.json", "w") as fh:
        json.dump({"workload": w.name, "seed": w.seed,
                   "passes": [st["spans"] for st in states]}, fh)
    not_applicable = [] if w.name == "simulate-sweep" else ["cli.pool_efficiency"]
    return {
        "passes": traced,
        "untraced_passes": plain,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "quality": w.quality,
        "per_layer": metrics,
        "absent": states[0]["absent"],
        "not_applicable": not_applicable,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    data = inputs.generate(args.workload, args.seed)
    w = Workload(args.workload, data, work, args.seed)
    warm = Runner(w)
    warm.call(w.ops[0])
    print("ready", inputs.digest(data), flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds, trace = float(command[1]), command[2] == "1"
    if trace:
        result = measure_traced(w, seconds, work / "trace")
    else:
        result = measure(w, seconds)
    result["attempted"] += warm.attempted
    result["failures"] = warm.failures + result["failures"]
    print("result", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
