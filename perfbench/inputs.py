"""Seeded input generation for the four perfbench workloads (stdlib only).

``generate(workload, seed)`` is a pure function of its arguments: the same
seed gives byte-identical inputs, and ``digest`` fingerprints them so that a
run can prove it measured what it meant to.  Paths inside CLI argument lists
are written as ``{work}`` and filled in by the worker at run time, so they do
not enter the digest.

Drawn values are stratified (one draw per equal-width stratum, then shuffled)
so that every seed covers the whole range.  That keeps the total work of a
pass nearly seed-independent while the individual inputs still change.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("simulate-canonical", "simulate-sweep", "tw-sweep", "cli-cold")

# Seed kept out of every tuning run; later performance claims re-check on it.
HELDOUT_SEED = 7919

# Digests of the inputs for two reference seeds.  A change to the generator
# changes them, which is a change to the benchmark.
REFERENCE_DIGESTS = {
    ("simulate-canonical", 1): "e5c00a745dea245b",
    ("simulate-canonical", HELDOUT_SEED): "7f093c97f6b3adc0",
    ("simulate-sweep", 1): "4a3f61afeb36f941",
    ("simulate-sweep", HELDOUT_SEED): "c32e0ac6d89e1b71",
    ("tw-sweep", 1): "d8696f3557ccb6df",
    ("tw-sweep", HELDOUT_SEED): "7b52cac221fd9359",
    ("cli-cold", 1): "91391d7fa61363c9",
    ("cli-cold", HELDOUT_SEED): "233a6138000fba92",
}

ANALYSIS_ALL = {"symmetry": True, "breaking": True, "weakform": True}

# Periodic (speed, energy) levels between the center equilibrium and the
# homoclinic loop, at 1/4, 1/2 and 3/4 of the center level.
PERIODIC_CATALOGUE = (
    (1.1, -9.569e-06), (1.1, -1.914e-05), (1.1, -2.871e-05),
    (1.2, -7.901e-05), (1.2, -1.580e-04), (1.2, -2.370e-04),
    (1.5, -1.341e-03), (1.5, -2.681e-03), (1.5, -4.022e-03),
    (2.0, -1.151e-02), (2.0, -2.302e-02), (2.0, -3.452e-02),
)
# Peaked (speed, integration constant) points with F(U_s) < 0.
PEAKED_CATALOGUE = ((-3.0, -1.0), (-2.5, -1.0), (-3.0, -2.0), (-2.0, -1.0))

# The acceptance-12 scenario: small, fast, every analysis on.
ACCEPTANCE_12 = {
    "grid": {"n_points": 128, "length": 40.0},
    "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
    "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
    "analysis": ANALYSIS_ALL,
}


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


def _canonical(rng: random.Random) -> dict:
    # threshold = 10.5 x the initial max slope of 0.25 sin(2 pi x / 300)
    slope0 = 0.25 * 2.0 * math.pi / 300.0
    runs = [
        ("solitary", {
            "grid": {"n_points": 1024, "length": 120.0},
            "initial": {"kind": "tw_profile", "speed": 1.2},
            "solver": {"t_end": 10.0, "snapshot_interval": 0.5},
            "analysis": ANALYSIS_ALL,
        }, {"termination": "completed", "verdict": "traveling_wave_consistent", "speed": 1.2}),
        ("gaussian", {
            "grid": {"n_points": 512, "length": 40.0},
            "initial": {"kind": "gaussian", "amplitude": 0.1, "width": 2.0},
            "solver": {"t_end": 20.0, "snapshot_interval": 0.25},
            "analysis": ANALYSIS_ALL,
        }, {"termination": "completed", "verdict": "not_symmetric"}),
        ("breaking", {
            "grid": {"n_points": 1024, "length": 300.0},
            "initial": {"kind": "mode", "amplitude": 0.25, "wavenumber": 1},
            "solver": {"t_end": 60.0, "snapshot_interval": 0.6,
                       "breaking_slope_threshold": 10.5 * slope0},
            "analysis": ANALYSIS_ALL,
        }, {"termination": "breaking_detected"}),
    ]
    return {"ops": [
        {"name": name, "scenario": scenario, "seed": rng.randrange(2**31), "expect": expect}
        for name, scenario, expect in runs
    ]}


def _sweep(rng: random.Random) -> dict:
    amplitudes = sorted(round(a, 6) for a in _strata(rng, 0.02, 0.08, 4))
    widths = sorted(round(w, 6) for w in _strata(rng, 1.5, 2.5, 2))
    config = {
        "command": "simulate",
        "base": {
            "grid": {"n_points": 256, "length": 40.0},
            "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
            "solver": {"t_end": 4.0, "snapshot_interval": 0.1},
            "analysis": ANALYSIS_ALL,
        },
        "sweep": {"initial.amplitude": amplitudes, "initial.width": widths},
    }
    return {"ops": [{
        "name": "sweep",
        "config": config,
        "seed": rng.randrange(2**31),
        "workers": 2,
        "expect": {"points": 8, "termination": "completed", "snapshots": 41},
    }]}


def _tw(rng: random.Random) -> dict:
    docs = [({"speed": round(c, 6)}, "smooth_solitary") for c in _strata(rng, 1.05, 3.0, 56)]
    for _ in range(2):
        docs += [({"speed": c, "energy": e, "wave": "periodic"}, "smooth_periodic")
                 for c, e in PERIODIC_CATALOGUE]
        docs += [({"speed": c, "integration_constant": a, "wave": "peaked"}, "peaked")
                 for c, a in PEAKED_CATALOGUE]
    docs += [({"speed": round(c, 6)}, "nonexistence") for c in _strata(rng, 0.2, 0.9, 12)]
    rng.shuffle(docs)
    return {"ops": [
        {"name": f"tw{i:03d}", "doc": doc, "seed": rng.randrange(2**31), "expect": expect}
        for i, (doc, expect) in enumerate(docs)
    ]}


def _cli(rng: random.Random) -> dict:
    speed = repr(round(_strata(rng, 1.05, 3.0, 1)[0], 6))
    seed = str(rng.randrange(2**31))
    ops = [
        ("version", ["--version"], "mase "),
        ("tw", ["tw", "--speed", speed, "--seed", seed, "--out", "{work}/tw"], "smooth_solitary"),
        ("simulate", ["simulate", "--config", "{work}/scenario.json", "--out", "{work}/run",
                      "--seed", seed], "termination: completed"),
        ("symmetry", ["symmetry", "--run", "{work}/run"], "verdict: "),
        ("weakform", ["weakform", "--run", "{work}/run", "--seed", seed], "max residual "),
    ]
    return {
        "scenario": ACCEPTANCE_12,
        "ops": [{"name": n, "argv": argv, "expect": {"exit": 0, "stdout": text}}
                for n, argv, text in ops],
    }


_GENERATORS = {
    "simulate-canonical": _canonical,
    "simulate-sweep": _sweep,
    "tw-sweep": _tw,
    "cli-cold": _cli,
}


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload, as plain JSON-serialisable data."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
