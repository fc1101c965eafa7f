"""Time integration of the nonlocal evolution form.

RK4 in the interaction picture on the Fourier spectrum of u, with a step
sized by an embedded error estimate under a stability cap, snapshot capture
at a fixed cadence, and a stop at the first accepted step whose max|u_x|
reaches the breaking threshold (BREAKING_DETECTED), the one max|u_x| the
package computes: each snapshot keeps the value its row checked.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConfigError, number
from .grid import Field, Grid, State
from .operators import FLUX, _nonlinear_spectrum, _rhs_tables

__all__ = [
    "SolverConfig",
    "Termination",
    "Trajectory",
    "StepStats",
    "evolve",
]


class Termination(str, Enum):
    COMPLETED = "completed"
    BREAKING_DETECTED = "breaking_detected"
    DT_UNDERFLOW = "dt_underflow"
    BLOW_UP = "blow_up"


# The most snapshots one run records: evolve lays out every snapshot time
# before it steps, and each snapshot is one CSV file.
MAX_SNAPSHOTS = 100_000
# The largest t_end / dt_max, the fewest steps a run can take: a run that
# needs more would not end in reasonable time.  The tests go up to 600.
MAX_STEPS = 10**6
# The accuracy of a step: a row accepts it when the embedded error estimate,
# relative to the new state, is at most TOL.  On the canonical Gaussian run
# this keeps every snapshot within 1e-7 of max|u| of a run with a quarter of
# the cap and of dt_max; 1e-9 is closer still, but needs more steps on the
# small grids of a sweep than the classical RK4 step did.
TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls.

    Each step keeps its error estimate at most TOL and is at most
    min(dt_max, cfl * h / max|14u|); the run stops early when max|u_x|
    crosses breaking_slope_threshold, the step to try falls below dt_min or
    a step gives non-finite values.  The step takes the linear term exactly,
    so cfl only scales the cap of the nonlinear advection 14u: cfl = 0.9
    keeps dt times the kept band's frozen-coefficient spectral radius, at
    most cfl * 2 pi/3 + O(h), inside classical RK4's imaginary-axis
    stability interval |z| <= 2 sqrt(2).  Every setting is a finite positive
    number, kept as given.  A run records a snapshot at every multiple of
    snapshot_interval below t_end and at t_end, ceil(t_end / snapshot_interval)
    after the initial one, so t_end / snapshot_interval is at most
    MAX_SNAPSHOTS; t_end / dt_max is at most MAX_STEPS.
    """

    t_end: float
    snapshot_interval: float
    cfl: float = 0.9
    dt_max: float = 0.1
    dt_min: float = 1e-8
    breaking_slope_threshold: float = 1e3

    def __post_init__(self):
        for f in fields(self):
            number(f"solver.{f.name}", getattr(self, f.name), positive=True)
        if not self.dt_min < self.dt_max:
            raise ConfigError("need solver.dt_min < solver.dt_max")
        if not self.snapshot_interval <= self.t_end:
            raise ConfigError("need solver.snapshot_interval <= solver.t_end")
        if self.t_end / self.snapshot_interval > MAX_SNAPSHOTS:
            raise ConfigError(f"solver.t_end / solver.snapshot_interval asks for more than "
                              f"{MAX_SNAPSHOTS} snapshots")
        if not self.t_end / self.dt_max <= MAX_STEPS:
            raise ConfigError(f"solver.t_end / solver.dt_max asks for more than {MAX_STEPS} steps")


@dataclass(frozen=True)
class StepStats:
    """How a row stepped: its accepted and rejected steps and the smallest and
    largest accepted dt (None without an accepted step)."""

    accepted: int
    rejected: int
    dt_smallest: float | None
    dt_largest: float | None


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run; ``steps`` and ``max_slopes``, the max|u_x| evolve
    checked for each snapshot, are set by evolve, not by a run read back."""

    snapshots: tuple[State, ...]
    config: SolverConfig
    termination: Termination
    steps: StepStats | None = None
    max_slopes: tuple[float, ...] | None = None

    def __post_init__(self):
        times = [s.time for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("snapshot times must be strictly increasing")
        if self.max_slopes is not None and len(self.max_slopes) != len(self.snapshots):
            raise ValueError("max_slopes needs one entry per snapshot")

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].u.grid

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


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


def _rk4(uh: np.ndarray, nl: np.ndarray, grid: Grid, dt):
    """One RK4(3)IP step of each spectrum uh = rfft(u) along the last axis.

    Classical RK4 in the interaction picture (Balac and Mahe, Comput. Phys.
    Commun. 184, 2013): the factor exp(lin dt/2) takes the linear term
    ``lin * uh`` exactly, and the stages evaluate only its nonlinear rest N,
    the kept band of _nonlinear_spectrum.  ``nl`` is N(u), which the step that
    made ``uh`` returned (first same as last).  Returns the new spectrum, N of
    it, and each row's error estimate relative to the new spectrum (2-norms):
    the embedded third-order solution differs from the new one by exactly
    dt/10 (k4 - k5).  A row whose estimate is 0 has error 0.

    ``dt`` is a float or an array that broadcasts against ``uh``, such as one
    step size per row of a (B, n//2 + 1) stack; each row equals its own
    one-row step bitwise.  Nothing is checked: a step that overflows returns
    non-finite entries, and the caller decides what that ends.
    """
    lin = _rhs_tables(grid.n_points, grid.length)["lin"]
    band = nl.shape[-1]
    e = np.exp((0.5 * dt) * lin)
    ui = e * uh
    eb, uib = e[..., :band], ui[..., :band]
    k1 = eb * nl
    k2 = _nonlinear_spectrum(uib + (0.5 * dt) * k1, grid)
    k3 = _nonlinear_spectrum(uib + (0.5 * dt) * k2, grid)
    k4 = _nonlinear_spectrum(eb * (uib + dt * k3), grid)
    # N is 0 above the band: there the step is the rotation e^2
    new = e * ui
    new[..., :band] = eb * (uib + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3)) + (dt / 6.0) * k4
    k5 = _nonlinear_spectrum(new[..., :band], grid)
    gap = np.linalg.norm((0.1 * dt) * (k4 - k5), axis=-1)
    err = np.divide(gap, np.linalg.norm(new, axis=-1), out=np.zeros_like(gap), where=gap != 0)
    return new, k5, err


def evolve(initials: Sequence[State], config: SolverConfig) -> list[Trajectory]:
    """Integrate each initial state to t_end, recording snapshots every snapshot_interval.

    The snapshot times are every t0 + k * snapshot_interval strictly before
    t_end, then t_end.  The states must share one grid and one start time
    before t_end; they step together as one (B, n//2 + 1) stack of spectra,
    so a step costs the same transform calls for any B.  Each pass steps
    every unfinished row once toward its own next snapshot.  A row tries
    free = min(proposal, dt_max, cfl * h / max|14u|) or, when that snapshot
    is at most free * (1 + 1e-9) away, exactly the time left, after which
    its time is the snapshot time.  It accepts the step when its error
    estimate is at most TOL and proposes dt * clip(0.9 (TOL/err)^(1/4), 0.2,
    5) next; a step shortened to land on a snapshot does not shrink the next
    proposal.  A row that rejects its step tries a smaller one on the next
    pass while the others step on.  Trajectory i equals
    ``evolve([initials[i]], config)[0]`` bitwise, and its ``steps`` says how
    it stepped.

    A row finishes at its last snapshot, t_end, or stops early with the
    matching termination code when a step crosses the breaking threshold
    (BREAKING_DETECTED), when the step it would try falls below dt_min
    (DT_UNDERFLOW) or when a step gives non-finite values (BLOW_UP); the
    state at the stop time, the last finite one, is appended as its final
    snapshot.  The other rows go on.
    A row's max|u_x|, from the spectrum at the start and after each accepted
    step, is what the breaking check reads and what ``max_slopes`` keeps.
    """
    if not initials:
        raise ValueError("evolve needs at least one initial state")
    grid = initials[0].u.grid
    t0 = initials[0].time
    if any(s.u.grid != grid or s.time != t0 for s in initials):
        raise ValueError("the initial states must share one grid and one start time")
    if not t0 < config.t_end:
        raise ValueError("the initial states must start before t_end")
    tables = _rhs_tables(grid.n_points, grid.length)
    value_slope, band = tables["value_slope"], len(tables["quad"])
    # the stability cap is cfl * h / (this * max|u|): 14u is the advection
    # speed FLUX'(u) = 1 + 14u without the 1, which the step takes exactly
    advection = 2.0 * FLUX[2]
    n_rows = len(initials)
    values = np.stack([s.u.values for s in initials])
    t = np.full(n_rows, t0)
    proposal = np.full(n_rows, float(config.dt_max))
    accepted = np.zeros(n_rows, dtype=int)
    rejected = np.zeros(n_rows, dtype=int)
    dt_lo = np.full(n_rows, np.inf)
    dt_hi = np.zeros(n_rows)
    snapshots = [[s] for s in initials]
    # every t0 + k * snapshot_interval strictly before t_end, then t_end
    schedule = t0 + config.snapshot_interval * np.arange(
        1, np.ceil((config.t_end - t0) / config.snapshot_interval) + 1)
    schedule = np.append(schedule[schedule < config.t_end], config.t_end)
    # each row's next snapshot in the schedule; a finished row is past the end
    nxt = np.zeros(n_rows, dtype=int)
    termination = [Termination.COMPLETED] * n_rows

    def record(i) -> None:
        snapshots[i].append(State(t[i], Field(grid, values[i])))
        slopes[i].append(float(slope[i]))

    def stop(rows: np.ndarray, code: Termination) -> None:
        """Finish the rows, each with its state at the stop time as its last snapshot."""
        nxt[rows] = len(schedule)
        for i in rows:
            termination[i] = code
            if t[i] > snapshots[i][-1].time:
                record(i)

    # overflow shows as non-finite values, and a zero state or error as an
    # infinite cap or growth factor
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        uh = np.fft.rfft(values)
        slope = np.max(np.abs(np.fft.irfft(value_slope[1] * uh, grid.n_points)), axis=-1)
        slopes = [[float(v)] for v in slope]
        nl = _nonlinear_spectrum(uh[:, :band], grid)
        while (rows := np.flatnonzero(nxt < len(schedule))).size:
            # a slice while every row steps: views instead of copies
            at = slice(None) if rows.size == n_rows else rows
            cap = config.cfl * grid.spacing / (advection * np.max(np.abs(values[at]), axis=-1))
            free = np.minimum(np.minimum(proposal[at], cap), config.dt_max)
            under = free < config.dt_min
            if under.any():
                stop(rows[under], Termination.DT_UNDERFLOW)
                continue
            # a row within free * (1 + 1e-9) of its next snapshot steps exactly onto it
            target = schedule[nxt[at]]
            land = target - t[at] <= free * (1.0 + 1e-9)
            dt = np.where(land, target - t[at], free)
            new, k5, err = _rk4(uh[at], nl[at], grid, dt[:, None])
            blown = ~(np.isfinite(err) & np.isfinite(new).all(axis=-1))
            stop(rows[blown], Termination.BLOW_UP)
            ok = (err <= TOL) & ~blown
            grown = dt * np.clip(0.9 * (TOL / err) ** 0.25, 0.2, 5.0)
            proposal[at] = np.where(ok & (dt < free), np.maximum(proposal[at], grown), grown)
            rejected[rows[~(ok | blown)]] += 1
            if not ok.all():
                at = rows = rows[ok]
                new, k5, dt, land, target = new[ok], k5[ok], dt[ok], land[ok], target[ok]
            uh[at] = new
            nl[at] = k5
            t[at] = np.where(land, target, t[at] + dt)
            nxt[at] += land
            accepted[at] += 1
            dt_lo[at] = np.minimum(dt_lo[at], dt)
            dt_hi[at] = np.maximum(dt_hi[at], dt)
            # values for the next cap and the snapshot, slope for breaking
            both = np.fft.irfft(value_slope * new[:, None, :], grid.n_points)
            values[at] = both[:, 0]
            slope[at] = np.max(np.abs(both[:, 1]), axis=-1)
            for i in rows[land]:
                record(i)
            smooth = slope[at] < config.breaking_slope_threshold
            stop(rows[~smooth], Termination.BREAKING_DETECTED)

    return [Trajectory(tuple(s), config, code,
                       StepStats(int(n), int(r), float(lo) if n else None, float(hi) if n else None),
                       tuple(m))
            for s, m, code, n, r, lo, hi in zip(snapshots, slopes, termination, accepted,
                                                rejected, dt_lo, dt_hi)]
