"""Scenario configuration: grid, initial condition, solver, analysis toggles.

A scenario is a plain JSON document; command-line ``--set key=value``
overrides win over the file.  Initial-condition kinds: zero, gaussian
(amplitude, center, width), mode (amplitude, wavenumber), tw_profile (speed,
center), file (path to an x,u CSV).  Every numeric setting follows
``errors.number``, the analysis toggles are JSON booleans and a setting the
scenario does not read is refused, all checked when a scenario loads.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, number
from .evolution import SolverConfig
from .grid import Field, Grid
from .traveling_wave import profile_to_field, solitary_profile

# the settings each initial-condition kind reads besides its kind
_IC_KINDS = {"zero": (), "gaussian": ("amplitude", "center", "width"),
             "mode": ("amplitude", "wavenumber"), "tw_profile": ("center", "speed"),
             "file": ("path",)}
_SECTIONS = ("grid", "initial", "solver", "analysis")
_ANALYSIS = ("breaking", "symmetry", "weakform", "symmetry_tol", "travel_tol")
# The largest initial |u|: near 2.8e76 the 3u^4 term of R(u) leaves the double
# range, so a larger field cannot take one step, and its transforms overflow.
MAX_AMPLITUDE = 1e76


@dataclass(frozen=True)
class Scenario:
    grid: Grid
    initial: dict
    solver: SolverConfig
    analysis: dict = field(default_factory=dict)


def scenario_from_dict(doc: dict) -> Scenario:
    for name in _SECTIONS:
        if not isinstance(doc.get(name, {}), dict):
            raise ConfigError(f"{name} must be a JSON object, got {reprlib.repr(doc[name])}")
    try:
        grid = Grid(**doc["grid"])
        initial = dict(doc.get("initial", {"kind": "zero"}))
        solver = SolverConfig(**doc["solver"])
        analysis = dict(doc.get("analysis", {}))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    kind = initial.get("kind")
    kinds = tuple(_IC_KINDS)  # a tuple: the kind may be any JSON value, a list too
    if kind not in kinds:
        raise ConfigError(f"unknown initial condition kind {kind!r}; choose from {kinds}")
    for key in ("symmetry_tol", "travel_tol"):
        if key in analysis:
            number(f"analysis.{key}", analysis[key], positive=True)
    for key in ("breaking", "symmetry", "weakform"):
        if not isinstance(analysis.get(key, False), bool):
            raise ConfigError(f"analysis.{key} must be true or false, "
                              f"got {reprlib.repr(analysis[key])}")
    sc = Scenario(grid, initial, solver, analysis)
    peak = build_initial_field(sc).sup_norm()  # validate parameters eagerly
    if peak > MAX_AMPLITUDE:
        raise ConfigError(f"the initial field reaches max|u| = {peak:g}, above {MAX_AMPLITUDE:g}")
    # after the values, so that a bad value of a setting that is read is named first
    _refuse_unknown(doc, "", _SECTIONS, "a scenario")
    _refuse_unknown(initial, "initial.", ("kind", *_IC_KINDS[kind]), f"a {kind} initial condition")
    _refuse_unknown(analysis, "analysis.", _ANALYSIS, "analysis")
    return sc


def _refuse_unknown(section: dict, prefix: str, known: tuple, owner: str) -> None:
    """A setting the scenario does not read is a ConfigError, not silently ignored."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown setting {prefix}{unknown[0]}: {owner} reads {', '.join(known)}")


def read_config(path: Path) -> dict:
    """The JSON object at ``path``; a file that holds none, or cannot be read, is a ConfigError."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}")
    except ValueError as exc:  # also an integer beyond Python's 4,300-digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {reprlib.repr(doc)}")
    return doc


def load_scenario(path: Path, overrides: list[str] | None = None) -> Scenario:
    doc = read_config(path)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return scenario_from_dict(doc)


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    out = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key.path=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer beyond the 4,300-digit limit
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return out


def _periodic_gaussian(grid: Grid, amplitude: float, center: float, width: float) -> np.ndarray:
    d = np.mod(grid.points - center + grid.length / 2, grid.length) - grid.length / 2
    with np.errstate(over="ignore"):  # d * d beyond the double range: exp(-inf) = 0 is exact
        return amplitude * np.exp(-(d * d) / (2.0 * width * width))


def _setting(ic: dict, key: str, default: float | None = None, **kind) -> float:
    """initial.<key> checked by ``errors.number`` (``default`` when absent, if given)."""
    if key not in ic and default is None:
        raise ConfigError(f"{ic['kind']} initial condition needs initial.{key}")
    return number(f"initial.{key}", ic.get(key, default), **kind)


def build_initial_field(scenario: Scenario) -> Field:
    grid = scenario.grid
    ic = scenario.initial
    kind = ic["kind"]
    if kind == "zero":
        return Field(grid, np.zeros(grid.n_points))
    if kind == "gaussian":
        amplitude = _setting(ic, "amplitude")
        width = _setting(ic, "width")
        center = _setting(ic, "center", grid.length / 2)
        if not 0 < width < grid.length:
            raise ConfigError(f"gaussian width {width} must lie in (0, length)")
        if not 0 <= center <= grid.length:
            raise ConfigError(f"gaussian center {center} outside the domain")
        return Field(grid, _periodic_gaussian(grid, amplitude, center, width))
    if kind == "mode":
        amplitude = _setting(ic, "amplitude")
        wavenumber = _setting(ic, "wavenumber", integer=True)
        if not 1 <= wavenumber < grid.n_points // 3:
            raise ConfigError(f"wavenumber {wavenumber!r} outside the resolved band "
                              f"[1, {grid.n_points // 3})")
        m = int(wavenumber)
        k = 2.0 * np.pi * m / grid.length
        return Field(grid, amplitude * np.sin(k * grid.points))
    if kind == "tw_profile":
        speed = _setting(ic, "speed")
        center = _setting(ic, "center", grid.length / 2)
        return profile_to_field(solitary_profile(speed), grid, center=center)
    if kind == "file":
        from .storage import read_columns_csv

        if not isinstance(ic.get("path"), str):
            raise ConfigError("file initial condition needs initial.path, a string")
        cols = read_columns_csv(Path(ic["path"]), require=("u",))
        if len(cols["u"]) != grid.n_points:
            raise ConfigError(
                f"file initial condition has {len(cols['u'])} samples, grid wants {grid.n_points}"
            )
        return Field(grid, cols["u"])
    raise ConfigError(f"unknown initial condition kind {kind!r}")
