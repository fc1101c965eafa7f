"""mase benchmark entry point (stdlib only).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate-canonical, simulate-sweep, tw-sweep, cli-cold (see
README.md beside this file for why each exists).  It generates every
input from ``--seed`` and runs mase from ``src/`` of the checkout in fresh
interpreters:

* three interpreters (one with ``--trace 1``) are started one after another;
  each is timed from its spawn until it has imported mase, generated the
  inputs and finished one untimed warm-up operation (``setup_s`` is the
  median), and then repeats passes over the workload's fixed list of
  operations, one at a time, for its third of ``--seconds``, checking every
  outcome against fixed bounds.  Spreading the passes over three processes
  averages out the speed differences between processes;
* with ``--trace 1`` it instead spends half the time untraced and half with
  every layer wrapped by ``tracer.py``, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the environment and the input
digest.  Exit code 2 means the benchmark could not run (for instance, no
``src/mase`` in the checkout); no result line is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from worker import typical_wall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = {0: 3, 1: 1}
DEADLINE_S = 170.0  # the whole run, set-ups included, must end before this
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


class Worker:
    """A worker interpreter in its own process group, killed at the deadline."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            cwd=ROOT, start_new_session=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.kill)
        self.timer.start()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def readline(self, prefix: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(prefix + " "):
            raise BenchError(f"worker did not answer {prefix!r} (got {line.strip()!r})")
        return line[len(prefix) + 1:].strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()

    def close(self) -> None:
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.kill()  # reap anything the worker left in its group


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(trace: bool) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(ROOT),
        "trace": trace,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up ``SETUPS`` fresh interpreters one after another; each measures its share."""
    deadline = time.monotonic() + DEADLINE_S
    digest = inputs.digest(inputs.generate(workload, seed))
    n = SETUPS[int(trace)]
    setups, digests, results = [], [], []
    for i in range(n):
        start = time.perf_counter()
        worker = Worker(workload, seed, work / f"setup{i}", deadline)
        try:
            digests.append(worker.readline("ready"))
            setups.append(time.perf_counter() - start)
            worker.send(f"run {seconds / n} {int(trace)}")
            results.append(json.loads(worker.readline("result")))
        finally:
            worker.close()
    trace_file = work / f"setup{n - 1}" / "trace" / "spans.json"
    if trace_file.is_file():
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        shutil.copy(trace_file, out / f"trace-{workload}-seed{seed}.json")
    result = results[-1]
    quality_keys = set().union(*(r["quality"] for r in results))
    result.update(
        setups=setups, digest=digest, digests=digests,
        passes=[p for r in results for p in r["passes"]],
        attempted=sum(r["attempted"] for r in results),
        failures=[f for r in results for f in r["failures"]],
        quality={k: max(r["quality"].get(k, 0.0) for r in results) for k in quality_keys},
        peak_rss_mb=max(r.get("peak_rss_mb", 0.0) for r in results),
    )
    return result


def summarize(workload: str, seed: int, trace: bool, r: dict) -> tuple[dict, list[str]]:
    lines = []
    reference = inputs.REFERENCE_DIGESTS.get((workload, seed))
    same = sum(d == r["digest"] for d in r["digests"])
    lines.append(f"inputs {workload} seed={seed} digest={r['digest']} "
                 f"(reproduced by {same}/{len(r['digests'])} fresh interpreters"
                 + (f"; reference {'matches' if reference == r['digest'] else 'DIFFERS'})"
                    if reference else ")"))
    digests_ok = same == len(r["digests"]) and reference in (None, r["digest"])

    failures = r["failures"]
    attempted = r["attempted"]
    for f in failures[:20]:
        lines.append(f"FAILED {f}")
    lats = [1e3 * lat for p in r["passes"] for lat in p]
    quality = r["quality"]
    lines.append("pass walls (s): " + " ".join(f"{sum(p):.4f}" for p in r["passes"]))
    lines.append(f"metric failed_frac = {len(failures) / attempted:.6g} "
                 f"({len(failures)}/{attempted} operations)")
    if "speed_err" in quality:
        lines.append(f"metric speed_err = {quality['speed_err']:.6g} (bound 1e-3, solitary run)")
    if "tw_residual_max" in quality:
        lines.append(f"metric tw_residual_max = {quality['tw_residual_max']:.6g} "
                     f"(bound 1e-4, smooth profiles)")
    if len(lats) >= 100:
        p90 = statistics.quantiles(lats, n=10)[8]
        lines.append(f"metric op_p90_ms = {p90:.6g} ms (n={len(lats)} operations)")

    if not trace:
        values = {
            "setup_s": statistics.median(r["setups"]),
            "wall_s": typical_wall(r["passes"]),
            "op_p50_ms": statistics.median(lats),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(r['setups'])} set-ups",
            "wall_s": f"sum of per-operation medians over {len(r['passes'])} passes",
            "op_p50_ms": f"n={len(lats)} operations",
            "peak_rss_mb": "self + children",
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for k, v in values.items():
            lines.append(f"metric {k} = {v:.6g} {END_TO_END_UNITS[k]} ({notes[k]})")
    else:
        spec = json.loads((HERE / "metrics.json").read_text())["per_layer"]
        metrics = {}
        for m in spec:
            value = r["per_layer"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            tag = (" [absent]" if m["name"] in r["absent"] else
                   " [not applicable]" if m["name"] in r["not_applicable"] else "")
            lines.append(f"metric {m['name']} = {value:.6g} {m['unit']}{tag}")
        lines.append(f"traced passes {len(r['passes'])}, untraced passes {len(r['untraced_passes'])}")
        if r["absent"]:
            lines.append("absent (wrapped name no longer exists): " + ", ".join(r["absent"]))
    result = {
        "correct": not failures and digests_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mase" / "__init__.py").is_file():
        print(f"error: no mase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        r = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no concurrent run still uses it
    result, lines = summarize(args.workload, args.seed, bool(args.trace), r)
    print("env " + json.dumps(environment(bool(args.trace)), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
