"""Scenario configuration: grid, initial condition, solver, analysis toggles.

A scenario is a plain JSON document; command-line ``--set key=value``
overrides win over the file.  Initial-condition kinds: zero, gaussian
(amplitude, center, width), mode (amplitude, wavenumber), tw_profile (speed),
file (path to an x,u CSV).  The analysis tolerances ``symmetry_tol`` and
``travel_tol`` must be finite positive numbers, checked when a scenario loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .evolution import SolverConfig
from .grid import Field, Grid
from .traveling_wave import profile_to_field, solitary_profile

_IC_KINDS = ("zero", "gaussian", "mode", "tw_profile", "file")


@dataclass(frozen=True)
class Scenario:
    grid: Grid
    initial: dict
    solver: SolverConfig
    analysis: dict = field(default_factory=dict)


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        grid = Grid(int(doc["grid"]["n_points"]), float(doc["grid"]["length"]))
        initial = dict(doc.get("initial", {"kind": "zero"}))
        solver = SolverConfig(**doc["solver"])
        analysis = dict(doc.get("analysis", {}))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    kind = initial.get("kind")
    if kind not in _IC_KINDS:
        raise ConfigError(f"unknown initial condition kind {kind!r}; choose from {_IC_KINDS}")
    for key in ("symmetry_tol", "travel_tol"):
        if key in analysis:
            tolerance(f"analysis.{key}", analysis[key])
    sc = Scenario(grid, initial, solver, analysis)
    build_initial_field(sc)  # validate parameters eagerly
    return sc


def load_scenario(path: Path, overrides: list[str] | None = None) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
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
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return out


def tolerance(name: str, raw) -> float:
    """``raw`` as a finite positive float; anything else raises ConfigError naming ``name``."""
    try:
        if np.isfinite(value := float(raw)) and value > 0:
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a finite positive number, got {raw!r}")


def _periodic_gaussian(grid: Grid, amplitude: float, center: float, width: float) -> np.ndarray:
    d = np.mod(grid.points - center + grid.length / 2, grid.length) - grid.length / 2
    return amplitude * np.exp(-(d * d) / (2.0 * width * width))


def _setting(ic: dict, key: str, default: float | None = None) -> float:
    """initial.<key> as a finite float (``default`` when absent, if given).

    A missing, non-numeric or non-finite value, or an integer beyond the
    double range, raises ConfigError naming the setting.
    """
    if key not in ic and default is None:
        raise ConfigError(f"{ic['kind']} initial condition needs initial.{key}")
    raw = ic.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"initial.{key} must be a number, got {raw!r}") from None
    except OverflowError:
        raise ConfigError(
            f"initial.{key} must be a finite number, got an integer beyond the double range"
        ) from None
    if not np.isfinite(value):
        raise ConfigError(f"initial.{key} must be a finite number, got {value}")
    return value


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
        wavenumber = _setting(ic, "wavenumber")
        if not wavenumber.is_integer():
            raise ConfigError(f"initial.wavenumber must be an integer, got {wavenumber}")
        m = int(wavenumber)
        if not 1 <= m < grid.n_points // 3:
            raise ConfigError(f"wavenumber {m} outside the resolved band [1, {grid.n_points // 3})")
        k = 2.0 * np.pi * m / grid.length
        return Field(grid, amplitude * np.sin(k * grid.points))
    if kind == "tw_profile":
        speed = _setting(ic, "speed")
        center = _setting(ic, "center", grid.length / 2)
        return profile_to_field(solitary_profile(speed), grid, center=center)
    if kind == "file":
        from .storage import read_columns_csv

        if "path" not in ic:
            raise ConfigError("file initial condition needs a path")
        cols = read_columns_csv(Path(ic["path"]), require=("u",))
        if len(cols["u"]) != grid.n_points:
            raise ConfigError(
                f"file initial condition has {len(cols['u'])} samples, grid wants {grid.n_points}"
            )
        return Field(grid, cols["u"])
    raise ConfigError(f"unknown initial condition kind {kind!r}")
