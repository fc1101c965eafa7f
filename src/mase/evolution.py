"""Time integration of the nonlocal evolution form.

Classical RK4 on the Fourier spectrum of u with an adaptive CFL-limited step,
snapshot capture at a fixed cadence, and onset detection for wave breaking
(slope blow-up with bounded amplitude).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from numbers import Real

import numpy as np

from .grid import Field, Grid, State
from .operators import FLUX, _rhs_spectrum, _rhs_tables, _spectral_tables

__all__ = [
    "SolverConfig",
    "Termination",
    "Trajectory",
    "BreakingReport",
    "evolve",
    "detect_breaking",
]


class Termination(str, Enum):
    COMPLETED = "completed"
    BREAKING_DETECTED = "breaking_detected"
    DT_UNDERFLOW = "dt_underflow"
    BLOW_UP = "blow_up"


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls.

    dt follows min(dt_max, cfl * h / (1 + max|1 + 14u|)); the run stops early
    when max|u_x| crosses breaking_slope_threshold, the step would fall
    below dt_min or a step produces non-finite values.  cfl = 0.9 keeps
    dt times the frozen-coefficient spectral radius, at most cfl * pi, inside
    classical RK4's imaginary-axis stability interval |z| <= 2 sqrt(2).
    """

    t_end: float
    snapshot_interval: float
    cfl: float = 0.9
    dt_max: float = 0.1
    dt_min: float = 1e-8
    breaking_slope_threshold: float = 1e3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, Real) or isinstance(value, bool) or not np.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if not 0 < self.dt_min < self.dt_max:
            raise ValueError("need 0 < dt_min < dt_max")
        if not 0 < self.snapshot_interval <= self.t_end:
            raise ValueError("need 0 < snapshot_interval <= t_end")
        if self.cfl <= 0 or self.breaking_slope_threshold <= 0:
            raise ValueError("cfl and breaking_slope_threshold must be positive")


@dataclass(frozen=True)
class Trajectory:
    snapshots: tuple[State, ...]
    config: SolverConfig
    termination: Termination

    def __post_init__(self):
        times = [s.time for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].u.grid

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @cached_property
    def max_slopes(self) -> np.ndarray:
        """max|u_x| of every snapshot, formed once and shared by the breaking
        check, diagnostics.csv and the run's headline stats (read-only)."""
        out = _series(self.snapshots, lambda values: _max_slope(values, self.grid))
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class BreakingReport:
    detected: bool
    t_detect: float
    max_slope_history: tuple[tuple[float, float], ...]
    sup_norm_history: tuple[tuple[float, float], ...]


_BLOCK_VALUES = 4096  # snapshot values per stack of a trajectory analysis


def _block_rows(n_points: int) -> int:
    """Snapshots per stack on an n_points grid: 16 at N = 256, 4 at N = 1024."""
    return max(1, _BLOCK_VALUES // n_points)


def _value_blocks(states: Sequence[State]) -> Iterator[tuple[slice, np.ndarray]]:
    """Successive (rows, values) blocks of the states, _block_rows at a time.

    ``values`` is the (b, n) stack of the states ``states[rows]``.  Analyses
    of a trajectory run on these stacks with transforms and reductions
    along the last axis, so each row equals its one-row evaluation bitwise.
    The block keeps each of their temporaries near 4,096 values (32 KB, a
    spectrum about as much) whatever N and the number of snapshots.
    """
    if not states:
        return
    size = _block_rows(states[0].u.grid.n_points)
    for start in range(0, len(states), size):
        rows = slice(start, start + size)
        yield rows, np.stack([s.u.values for s in states[rows]])


def _series(states: Sequence[State], fn) -> np.ndarray:
    """One value per state: ``fn`` maps each block of _value_blocks to its row values."""
    return np.concatenate([fn(values) for _, values in _value_blocks(states)])


def _sup_norms(values: np.ndarray) -> np.ndarray:
    return np.max(np.abs(values), axis=-1)


def _max_slope(values: np.ndarray, grid: Grid) -> np.ndarray:
    """max|u_x| of each row of ``values`` (a scalar for one row)."""
    t = _spectral_tables(grid.n_points, grid.length)
    ux = np.fft.irfft(t["d1"] * np.fft.rfft(values), grid.n_points)
    return np.max(np.abs(ux), axis=-1)


def _rk4(uh: np.ndarray, grid: Grid, dt) -> np.ndarray:
    """One classical RK4 step of each spectrum uh = rfft(u) along the last axis.

    ``dt`` is a float or an array that broadcasts against ``uh``, such as one
    step size per row of a (B, n//2 + 1) stack; each row equals its own
    one-row step bitwise.  The result is not checked: a step that overflows
    returns non-finite entries, and the caller decides what that ends.
    """
    # overflow in a stage shows as non-finite output
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _rhs_spectrum(uh, grid)
        k2 = _rhs_spectrum(uh + 0.5 * dt * k1, grid)
        k3 = _rhs_spectrum(uh + 0.5 * dt * k2, grid)
        k4 = _rhs_spectrum(uh + dt * k3, grid)
        return uh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _cfl_dt(values: np.ndarray, grid: Grid, config: SolverConfig) -> np.ndarray:
    """CFL step of each row of ``values`` (last axis: the grid)."""
    # FLUX'(u) = FLUX[1] + 2 FLUX[2] u is the local advection speed
    speed = 1.0 + np.max(np.abs(FLUX[1] + 2.0 * FLUX[2] * values), axis=-1)
    return np.minimum(config.dt_max, config.cfl * grid.spacing / speed)


def evolve(initials: Sequence[State], config: SolverConfig) -> list[Trajectory]:
    """Integrate each initial state to t_end, recording snapshots every snapshot_interval.

    The states must share one grid and one start time; they step together
    as one (B, n//2 + 1) stack of spectra, so a step costs the same transform
    calls for any B.  Each row takes its own CFL step, and a row that reaches
    the current snapshot time waits until the others catch up.  Trajectory i
    equals ``evolve([initials[i]], config)[0]`` bitwise.

    Snapshot times are hit exactly (the last step into a snapshot is
    shortened).  A row stops early with the matching termination code when
    the breaking threshold or the dt floor is reached, or when its step blows
    up (BLOW_UP); the state at the stop time, the last finite one, is
    appended as its final snapshot.  The other rows go on.
    """
    if not initials:
        raise ValueError("evolve needs at least one initial state")
    grid = initials[0].u.grid
    t0 = initials[0].time
    if any(s.u.grid != grid or s.time != t0 for s in initials):
        raise ValueError("the initial states must share one grid and one start time")
    value_slope = _rhs_tables(grid.n_points, grid.length)["value_slope"]
    values = np.stack([s.u.values for s in initials])
    uh = np.fft.rfft(values)
    t = np.full(len(initials), t0)
    snapshots = [[s] for s in initials]
    n_snaps = int(round((config.t_end - t0) / config.snapshot_interval))
    snap_times = t0 + config.snapshot_interval * np.arange(1, n_snaps + 1)
    if len(snap_times) == 0 or snap_times[-1] < config.t_end - 1e-12:
        snap_times = np.append(snap_times, config.t_end)

    done = np.zeros(len(initials), dtype=bool)
    termination = [Termination.COMPLETED] * len(initials)

    def stop(rows: np.ndarray, code: Termination) -> None:
        done[rows] = True
        for i in rows:
            termination[i] = code

    for t_target in snap_times:
        live = np.flatnonzero(~done)
        rows = live[t[live] < t_target - 1e-12]
        while rows.size:
            # a slice while every row steps: views instead of copies
            at = slice(None) if rows.size == len(t) else rows
            dt_cfl = _cfl_dt(values[at], grid, config)
            under = dt_cfl < config.dt_min
            if under.any():
                stop(rows[under], Termination.DT_UNDERFLOW)
                at = rows = rows[~under]
                dt_cfl = dt_cfl[~under]
                if not rows.size:
                    break
            dt = np.minimum(dt_cfl, t_target - t[at])
            new = _rk4(uh[at], grid, dt[:, None])
            finite = np.isfinite(new).all(axis=-1)
            if not finite.all():
                stop(rows[~finite], Termination.BLOW_UP)
                at = rows = rows[finite]
                dt, new = dt[finite], new[finite]
                if not rows.size:
                    break
            uh[at] = new
            t[at] += dt
            # values for the next CFL step and the snapshot, slope for breaking
            both = np.fft.irfft(value_slope * new[:, None, :], grid.n_points)
            values[at] = both[:, 0]
            smooth = np.max(np.abs(both[:, 1]), axis=-1) < config.breaking_slope_threshold
            go = smooth & (t[at] < t_target - 1e-12)
            if not go.all():
                stop(rows[~smooth], Termination.BREAKING_DETECTED)
                rows = rows[go]
        for i in live:
            if t[i] > snapshots[i][-1].time + 1e-12:
                snapshots[i].append(State(t[i], Field(grid, values[i])))
        if done.all():
            break

    return [Trajectory(tuple(s), config, code) for s, code in zip(snapshots, termination)]


def detect_breaking(traj: Trajectory) -> BreakingReport:
    """Check the recorded snapshots for slope blow-up with bounded amplitude.

    Breaking is flagged at the first snapshot whose max|u_x| reaches the
    configured threshold while the sup norm stays within twice its initial
    value.
    """
    if not traj.snapshots:
        raise ValueError("trajectory has no snapshots")
    times = traj.times().tolist()
    slopes = traj.max_slopes
    sups = _series(traj.snapshots, _sup_norms)
    bounded = sups <= 2.0 * max(float(sups[0]), 1e-300)
    hits = np.flatnonzero((slopes >= traj.config.breaking_slope_threshold) & bounded)
    detected = bool(hits.size)
    t_detect = times[hits[0]] if detected else float("nan")
    return BreakingReport(detected, t_detect, tuple(zip(times, slopes.tolist())),
                          tuple(zip(times, sups.tolist())))
