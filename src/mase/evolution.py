"""Time integration of the nonlocal evolution form.

Classical RK4 on the Fourier spectrum of u with an adaptive CFL-limited step,
snapshot capture at a fixed cadence, and onset detection for wave breaking
(slope blow-up with bounded amplitude).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from numbers import Real

import numpy as np

from .errors import BlowUpError
from .grid import Field, Grid, State
from .operators import FLUX, REACTION, _rhs_spectrum, _rhs_tables, _spectral_tables

__all__ = [
    "SolverConfig",
    "Termination",
    "Trajectory",
    "BreakingReport",
    "step",
    "evolve",
    "detect_breaking",
    "linear_phase_speed",
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
    below dt_min or a step produces non-finite values.
    """

    t_end: float
    snapshot_interval: float
    cfl: float = 0.3
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


@dataclass(frozen=True)
class BreakingReport:
    detected: bool
    t_detect: float
    max_slope_history: tuple[tuple[float, float], ...]
    sup_norm_history: tuple[tuple[float, float], ...]


def _max_slope(values: np.ndarray, grid: Grid) -> float:
    t = _spectral_tables(grid.n_points, grid.length)
    ux = np.fft.irfft(t["d1"] * np.fft.rfft(values), grid.n_points)
    return float(np.max(np.abs(ux)))


def _rk4(uh: np.ndarray, grid: Grid, dt: float) -> np.ndarray:
    """One classical RK4 step of the spectrum uh = rfft(u)."""
    # overflow in a stage is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _rhs_spectrum(uh, grid)
        k2 = _rhs_spectrum(uh + 0.5 * dt * k1, grid)
        k3 = _rhs_spectrum(uh + 0.5 * dt * k2, grid)
        k4 = _rhs_spectrum(uh + dt * k3, grid)
        out = uh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(f"non-finite stage values at step of size {dt:.3e}")
    return out


def step(s: State, dt: float) -> State:
    """One classical RK4 step of the nonlocal evolution form."""
    if dt <= 0 or not np.isfinite(dt):
        raise ValueError(f"dt must be a positive real, got {dt!r}")
    grid = s.u.grid
    uh = _rk4(np.fft.rfft(s.u.values), grid, dt)
    return State(s.time + dt, s.u.with_values(np.fft.irfft(uh, grid.n_points)))


def _cfl_dt(values: np.ndarray, grid: Grid, config: SolverConfig) -> float:
    # FLUX'(u) = FLUX[1] + 2 FLUX[2] u is the local advection speed
    speed = 1.0 + float(np.max(np.abs(FLUX[1] + 2.0 * FLUX[2] * values)))
    return min(config.dt_max, config.cfl * grid.spacing / speed)


def evolve(initial: State, config: SolverConfig) -> Trajectory:
    """Integrate to t_end, recording snapshots every snapshot_interval.

    Snapshot times are hit exactly (the last step into a snapshot is
    shortened).  Stops early with the matching termination code when the
    breaking threshold or the dt floor is reached, or when a step blows up
    (BLOW_UP); the state at the stop time, the last finite one, is appended
    as a final snapshot.
    """
    grid = initial.u.grid
    value_slope = _rhs_tables(grid.n_points, grid.length)["value_slope"]
    values = initial.u.values
    uh = np.fft.rfft(values)
    t = initial.time
    snapshots = [initial]
    n_snaps = int(round((config.t_end - initial.time) / config.snapshot_interval))
    snap_times = initial.time + config.snapshot_interval * np.arange(1, n_snaps + 1)
    if len(snap_times) == 0 or snap_times[-1] < config.t_end - 1e-12:
        snap_times = np.append(snap_times, config.t_end)

    termination = Termination.COMPLETED
    for t_target in snap_times:
        stopped = False
        while t < t_target - 1e-12:
            dt_cfl = _cfl_dt(values, grid, config)
            if dt_cfl < config.dt_min:
                termination = Termination.DT_UNDERFLOW
                stopped = True
                break
            dt = min(dt_cfl, t_target - t)
            try:
                uh = _rk4(uh, grid, dt)
            except BlowUpError:
                termination = Termination.BLOW_UP
                stopped = True
                break
            t += dt
            # values for the next CFL step and the snapshot, slope for breaking
            values, ux = np.fft.irfft(value_slope * uh, grid.n_points)
            if float(np.max(np.abs(ux))) >= config.breaking_slope_threshold:
                termination = Termination.BREAKING_DETECTED
                stopped = True
                break
        if t > snapshots[-1].time + 1e-12:
            snapshots.append(State(t, Field(grid, values)))
        if stopped:
            break

    return Trajectory(tuple(snapshots), config, termination)


def detect_breaking(traj: Trajectory) -> BreakingReport:
    """Check the recorded snapshots for slope blow-up with bounded amplitude.

    Breaking is flagged at the first snapshot whose max|u_x| reaches the
    configured threshold while the sup norm stays within twice its initial
    value.
    """
    if not traj.snapshots:
        raise ValueError("trajectory has no snapshots")
    slopes = []
    sups = []
    for s in traj.snapshots:
        slopes.append((s.time, _max_slope(s.u.values, s.u.grid)))
        sups.append((s.time, s.u.sup_norm()))
    sup0 = sups[0][1]
    detected = False
    t_detect = float("nan")
    for (t, slope), (_, sup) in zip(slopes, sups):
        if slope >= traj.config.breaking_slope_threshold and sup <= 2.0 * max(sup0, 1e-300):
            detected = True
            t_detect = t
            break
    return BreakingReport(detected, t_detect, tuple(slopes), tuple(sups))


def linear_phase_speed(k: float) -> float:
    """Phase speed (1 - k^2)/(1 + k^2) = 2/(1 + k^2) - 1 of the linearized equation."""
    k = float(k)
    return REACTION[1] / (1.0 + k * k) - FLUX[1]
