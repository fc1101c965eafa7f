"""Span tracer that measures mase's layers from outside the package.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
function named in ``WRAPS`` by a timing wrapper, at the name the *calling*
module binds (``mase.cli.evolve``, ``mase.evolution._rhs_values``, ...), so
that the call sites mase really uses are the ones measured.  A target that a
later change removes is skipped and the metrics that need it are reported as
absent instead of failing the run.

Every wrapped call pushes a frame.  On exit the frame's duration is added to
its key (inclusive time), the part not covered by child frames is added to
its key's and its layer's self time, and, for coarse calls, a span record
``(id, name, layer, start, end, parent, op, pid)`` is kept in memory.  Hot
calls (RK4 steps, right-hand sides, slope checks, root scans) are counted and
timed the same way but keep no span record, and FFTs are only counted, so the
trace of a pass stays a few thousand records.

Work done in sweep workers (forked, so they inherit the wrappers) and in
traced CLI subprocesses is exported to JSON files and merged by the parent; the part of a parent span that such
remote children cover is removed from the parent's self time, so self time
is busy time summed over processes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pathlib
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "scenarios", "evolution", "operators", "traveling_wave",
          "symmetry", "weakform", "storage")

# (module, attribute, key, layer, keep a span record)
WRAPS = (
    ("mase.cli", "_sweep_point", "cli.sweep_point", "cli", True),
    ("mase.cli", "scenario_from_dict", "scenarios.parse", "scenarios", True),
    ("mase.cli", "load_scenario", "scenarios.parse", "scenarios", True),
    ("mase.cli", "build_initial_field", "scenarios.initial_field", "scenarios", True),
    ("mase.scenarios", "build_initial_field", "scenarios.initial_field", "scenarios", True),
    ("mase.cli", "evolve", "evolution.evolve", "evolution", True),
    ("mase.cli", "detect_breaking", "evolution.detect_breaking", "evolution", True),
    ("mase.evolution", "_rk4", "evolution.step", "evolution", False),
    ("mase.evolution", "_max_slope", "evolution.slope_check", "evolution", False),
    ("mase.evolution", "_rhs_values", "operators.rhs", "operators", False),
    ("mase.cli", "solitary_profile", "traveling_wave.solitary", "traveling_wave", True),
    ("mase.scenarios", "solitary_profile", "traveling_wave.solitary", "traveling_wave", True),
    ("mase.cli", "periodic_profile", "traveling_wave.periodic", "traveling_wave", True),
    ("mase.cli", "peaked_composite", "traveling_wave.peaked", "traveling_wave", True),
    ("mase.cli", "turning_points", "traveling_wave.root_scan", "traveling_wave", False),
    ("mase.cli", "level_tangencies", "traveling_wave.root_scan", "traveling_wave", False),
    ("mase.traveling_wave", "turning_points", "traveling_wave.root_scan", "traveling_wave", False),
    ("mase.traveling_wave", "level_tangencies", "traveling_wave.root_scan", "traveling_wave", False),
    ("mase.cli", "verify_theorem", "symmetry.verify", "symmetry", True),
    ("mase.symmetry", "detect_axis", "symmetry.detect_axis", "symmetry", False),
    ("mase.cli", "unsteady_weak_residual", "weakform.unsteady", "weakform", True),
    ("mase.cli", "steady_residual_report", "weakform.steady", "weakform", True),
    ("mase.weakform", "steady_weak_residual", "weakform.steady_residual", "weakform", False),
    ("mase.cli", "write_trajectory", "storage.write", "storage", True),
    ("mase.cli", "write_profile", "storage.write", "storage", True),
    ("mase.cli", "write_json", "storage.write", "storage", True),
    ("mase.cli", "read_trajectory", "storage.read", "storage", True),
    ("mase.storage", "read_profile", "storage.read", "storage", True),
)

# Per-layer metric -> wrap keys it needs; a metric with a key that no
# target installed is reported as absent.
NEEDS = {
    "scenarios.initial_field_s": ("scenarios.initial_field",),
    "evolution.evolve_s": ("evolution.evolve",),
    "evolution.steps": ("evolution.step",),
    "evolution.step_us": ("evolution.evolve", "evolution.step"),
    "evolution.slope_checks": ("evolution.slope_check",),
    "evolution.detect_breaking_s": ("evolution.detect_breaking",),
    "operators.rhs_calls": ("operators.rhs",),
    "operators.rhs_us": ("operators.rhs",),
    "operators.fft_per_step": ("evolution.evolve", "evolution.step"),
    "traveling_wave.solitary_s": ("traveling_wave.solitary",),
    "traveling_wave.periodic_s": ("traveling_wave.periodic",),
    "traveling_wave.peaked_s": ("traveling_wave.peaked",),
    "traveling_wave.root_scan_s": ("traveling_wave.root_scan",),
    "symmetry.verify_s": ("symmetry.verify",),
    "symmetry.detect_axis_calls": ("symmetry.detect_axis",),
    "weakform.unsteady_s": ("weakform.unsteady",),
    "weakform.steady_s": ("weakform.steady",),
    "weakform.residual_calls": ("weakform.unsteady", "weakform.steady_residual"),
    "storage.write_s": ("storage.write",),
    "storage.read_s": ("storage.read",),
    "cli.pool_efficiency": ("cli.sweep_point",),
}


def _fft_points(args, kwargs, inverse: bool) -> int:
    """Computed number of real samples a call transforms (not measured)."""
    shape = getattr(args[0], "shape", None) or (len(args[0]),)
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is None:
        n = 2 * (shape[-1] - 1) if inverse else shape[-1]
    rows = 1
    for d in shape[:-1]:
        rows *= d
    return int(n) * rows


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self, export_dir: str | None = None, remote_parent: str | None = None,
                 op: int | None = None):
        self.export_dir = export_dir
        self.op = op
        self.owner_pid = os.getpid()
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset(remote_parent)

    # -- state ------------------------------------------------------------

    def reset(self, remote_parent: str | None = None) -> None:
        self.pid = os.getpid()
        self.remote_parent = remote_parent
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_key: defaultdict = defaultdict(float)
        self.self_layer: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.fft_s = 0.0
        self._in_evolve = 0
        self._next_id = 0

    def state(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "layer", "start", "end", "parent", "op", "pid"), s))
                      for s in self.spans],
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_key": dict(self.self_key),
            "self_layer": dict(self.self_layer),
            "counts": dict(self.counts),
            "fft_s": self.fft_s,
            "absent": self.absent,
        }

    def export(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.state(), fh)
        os.replace(tmp, path)

    # -- frames -----------------------------------------------------------

    def enter(self, key: str, layer: str, keep: bool) -> list:
        self._next_id += 1
        if self.stack:
            parent = self.stack[-1][5]
        else:
            parent = self.remote_parent
        frame = [key, layer, keep, 0.0, 0.0, f"{self.pid}.{self._next_id}", parent]
        if key == "evolution.evolve":
            self._in_evolve += 1
        self.stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        key, layer, keep, start, child, span_id, parent = frame
        self.stack.pop()
        dur = end - start
        own = dur - child
        self.calls[key] += 1
        self.incl[key] += dur
        self.self_key[key] += own
        self.self_layer[layer] += own
        if key == "evolution.evolve":
            self._in_evolve -= 1
        if self.stack:
            self.stack[-1][4] += dur
        if keep:
            self.spans.append((span_id, key, layer, start, end, parent, self.op, self.pid))

    @contextlib.contextmanager
    def span(self, key: str, layer: str = "cli"):
        frame = self.enter(key, layer, True)
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, keep: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(key, layer, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return wrapper

    def _wrap_sweep_point(self, fn):
        """Entry point of sweep workers: adopt the forked copy, export after each point."""
        tracer = self
        inner = self._wrap(fn, "cli.sweep_point", "cli", True)

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() != tracer.pid:
                parent = tracer.stack[-1][5] if tracer.stack else tracer.remote_parent
                tracer.reset(parent)
            try:
                return inner(task)
            finally:
                if tracer.export_dir and tracer.pid != tracer.owner_pid:
                    tracer.export(os.path.join(tracer.export_dir, f"worker-{tracer.pid}.json"))

        return wrapper

    def _wrap_fft(self, fn, inverse: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer.fft_s += time.perf_counter() - start
            c = tracer.counts
            c["fft_calls"] += 1
            c["fft_points"] += _fft_points(args, kwargs, inverse)
            if tracer._in_evolve:
                c["fft_in_evolve"] += 1
            return out

        return wrapper

    def _wrap_io(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            if tracer.stack:
                c = tracer.counts
                if kind == "write":
                    data = args[0] if args else kwargs.get("data", "")
                    c["files_written"] += 1
                    c["bytes_written"] += len(data.encode())
                else:
                    c["bytes_read"] += len(out.encode()) if isinstance(out, str) else len(out)
            return out

        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every target in WRAPS plus numpy's real FFTs and text/bytes file IO."""
        import numpy.fft

        installed = set()
        for module_name, attr, key, layer, keep in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if key == "cli.sweep_point":
                self._patch(module, attr, self._wrap_sweep_point(fn))
            else:
                self._patch(module, attr, self._wrap(fn, key, layer, keep))
            installed.add(key)
        self.absent = sorted(m for m, keys in NEEDS.items()
                             if not all(k in installed for k in keys))
        self._patch(numpy.fft, "rfft", self._wrap_fft(numpy.fft.rfft, False))
        self._patch(numpy.fft, "irfft", self._wrap_fft(numpy.fft.irfft, True))
        self._patch(pathlib.Path, "write_text", self._wrap_io(pathlib.Path.write_text, "write"))
        self._patch(pathlib.Path, "read_text", self._wrap_io(pathlib.Path.read_text, "read"))
        self._patch(pathlib.Path, "read_bytes", self._wrap_io(pathlib.Path.read_bytes, "read"))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# merging and metrics


def merge(states: list[dict]) -> dict:
    """Sum the counters of several process states and join their spans."""
    out = {"spans": [], "calls": Counter(), "incl": Counter(), "self_key": Counter(),
           "self_layer": Counter(), "counts": Counter(), "fft_s": 0.0, "absent": set()}
    for st in states:
        out["spans"].extend(st["spans"])
        out["absent"].update(st["absent"])
        for field in ("calls", "incl", "self_key", "self_layer", "counts"):
            out[field].update(st[field])
        out["fft_s"] += st["fft_s"]
    out["absent"] = sorted(out["absent"])
    _remove_remote_cover(out)
    return out


def _remove_remote_cover(st: dict) -> None:
    """Take from each span's self time the union of its children in other processes."""
    by_id = {s["id"]: s for s in st["spans"]}
    remote = defaultdict(list)
    for s in st["spans"]:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] != s["pid"]:
            remote[parent["id"]].append((max(s["start"], parent["start"]),
                                         min(s["end"], parent["end"])))
    for pid, intervals in remote.items():
        parent = by_id[pid]
        covered, reach = 0.0, float("-inf")
        for lo, hi in sorted(intervals):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        st["self_layer"][parent["layer"]] -= covered
        st["self_key"][parent["name"]] -= covered


# Metrics that count work; they repeat exactly from pass to pass for one seed.
COUNTS = frozenset({
    "evolution.steps", "evolution.slope_checks", "operators.rhs_calls", "operators.fft_calls",
    "operators.fft_per_step", "operators.fft_points", "symmetry.detect_axis_calls",
    "weakform.residual_calls", "storage.files_written", "storage.bytes_written",
    "storage.bytes_read",
})


def layer_metrics(st: dict) -> dict:
    """Per-layer metrics of one traced pass (merged over processes)."""
    calls, incl, counts = st["calls"], st["incl"], st["counts"]
    steps = calls["evolution.step"]
    rhs = calls["operators.rhs"]
    busy = sum(st["self_layer"].values())
    m = {
        "scenarios.initial_field_s": incl["scenarios.initial_field"],
        "evolution.evolve_s": incl["evolution.evolve"],
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * incl["evolution.evolve"] / steps if steps else 0.0,
        "evolution.slope_checks": calls["evolution.slope_check"],
        "evolution.detect_breaking_s": incl["evolution.detect_breaking"],
        "operators.rhs_calls": rhs,
        "operators.rhs_us": 1e6 * incl["operators.rhs"] / rhs if rhs else 0.0,
        "operators.fft_calls": counts["fft_calls"],
        "operators.fft_per_step": counts["fft_in_evolve"] / steps if steps else 0.0,
        "operators.fft_s": st["fft_s"],
        "operators.fft_share": st["fft_s"] / busy if busy > 0 else 0.0,
        "operators.fft_points": counts["fft_points"],
        "traveling_wave.solitary_s": incl["traveling_wave.solitary"],
        "traveling_wave.periodic_s": incl["traveling_wave.periodic"],
        "traveling_wave.peaked_s": incl["traveling_wave.peaked"],
        "traveling_wave.root_scan_s": incl["traveling_wave.root_scan"],
        "symmetry.verify_s": incl["symmetry.verify"],
        "symmetry.detect_axis_calls": calls["symmetry.detect_axis"],
        "weakform.unsteady_s": incl["weakform.unsteady"],
        "weakform.steady_s": incl["weakform.steady"],
        "weakform.residual_calls": calls["weakform.unsteady"] + calls["weakform.steady_residual"],
        "storage.write_s": st["self_key"]["storage.write"],
        "storage.read_s": st["self_key"]["storage.read"],
        "storage.files_written": counts["files_written"],
        "storage.bytes_written": counts["bytes_written"],
        "storage.bytes_read": counts["bytes_read"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = st["self_layer"][layer]
    return m


def read_exports(directory: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                out.append(json.load(fh))
    return out
