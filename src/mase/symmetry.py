"""Axis-of-symmetry detection and the symmetric-implies-traveling check.

A field is x-symmetric about lambda when u(x) = u(2 lambda - x).  The axis of
a trajectory is tracked per snapshot; for a rigidly traveling wave the axis
drifts linearly and the drift rate is the wave speed.  verify_theorem turns
that statement into a measurable verdict.

On a periodic domain the reflections about lambda and lambda + L/2 are the
same map, so an axis is determined modulo L/2; the reported representative is
the one nearest the strongest deviation from the mean, and genuinely tied
candidates are flagged as ambiguous.

A trajectory is analysed as stacks of snapshot rows (evolution._value_blocks):
the correlation spectra, the Newton polish of every grid peak, the
reflections behind the asymmetry and the shifts behind the travel error each
act on a whole stack along its last axis, and every row equals its one-row
evaluation bitwise.  A one-row stack is the analysis of a single field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConstantFieldError, NonFiniteFieldError
from .evolution import Trajectory, _value_blocks
from .grid import Grid
from .operators import _spectral_tables

__all__ = [
    "AxisSeries",
    "SymmetryReport",
    "Verdict",
    "track_axis",
    "verify_theorem",
]


class Verdict(str, Enum):
    TRAVELING_WAVE_CONSISTENT = "traveling_wave_consistent"
    SYMMETRY_BROKEN = "symmetry_broken"
    NOT_SYMMETRIC = "not_symmetric"


@dataclass(frozen=True)
class AxisSeries:
    times: np.ndarray = field(repr=False)
    axes: np.ndarray = field(repr=False)
    asymmetry: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        a = np.asarray(self.axes, dtype=np.float64)
        s = np.asarray(self.asymmetry, dtype=np.float64)
        if not (t.shape == a.shape == s.shape) or t.ndim != 1:
            raise ValueError("times, axes and asymmetry must be 1-d arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(s < 0) or np.any(s > 2.0 + 1e-12):
            raise ValueError("asymmetry values must lie in [0, 2]")
        for name, arr in (("times", t), ("axes", a), ("asymmetry", s)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SymmetryReport:
    axis_series: AxisSeries
    lambda_dot: float
    speed_estimate: float
    fit_residual: float
    travel_error: float
    verdict: Verdict


# ---------------------------------------------------------------------------
# reflection and shifting
#
# Each operation acts on a stack of rows along the last axis; a row of the
# result equals the one-row evaluation bitwise.  Grid-aligned moves are
# exact permutations, the others band-limited interpolation (the Nyquist
# mode of an even grid is not representable under fractional moves).


def _whole_steps(moves: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Which moves are whole grid steps (to 1e-9 of a step), and those steps."""
    steps = moves / h
    whole = np.abs(steps - np.round(steps)) < 1e-9
    return whole, np.round(steps[whole]).astype(np.int64)


def _band_limited(spectra: np.ndarray, n: int) -> np.ndarray:
    if n % 2 == 0:
        spectra[..., -1] = 0.0
    return np.fft.irfft(spectra, n)


def _shifted(values: np.ndarray, grid: Grid, shifts: np.ndarray) -> np.ndarray:
    """Samples of x -> u(x - s) of one row ``values``, a (len(shifts), n) stack."""
    n = grid.n_points
    whole, m = _whole_steps(shifts, grid.spacing)
    out = np.empty((len(shifts), n))
    out[whole] = values[(np.arange(n) - m[:, None]) % n]
    if not whole.all():
        k = _spectral_tables(n, grid.length)["k"]
        wh = np.fft.rfft(values) * np.exp(-1j * k * shifts[~whole, None])
        out[~whole] = _band_limited(wh, n)
    return out


def _reflected(values: np.ndarray, grid: Grid, axes: np.ndarray) -> np.ndarray:
    """Samples of x -> u(2a - x) of each row u of a (B, n) stack and its axis a."""
    n = grid.n_points
    shift = 2.0 * axes
    whole, m = _whole_steps(shift, grid.spacing)
    out = np.empty_like(values)
    out[whole] = np.take_along_axis(values[whole], (m[:, None] - np.arange(n)) % n, axis=-1)
    if not whole.all():
        k = _spectral_tables(n, grid.length)["k"]
        wh = np.conj(np.fft.rfft(values[~whole])) * np.exp(-1j * k * shift[~whole, None])
        out[~whole] = _band_limited(wh, n)
    return out


# ---------------------------------------------------------------------------
# axis detection


def _correlation_spectra(dev: np.ndarray) -> np.ndarray:
    """Spectra A with C(delta) = <u, u(2a - .)>, delta = 2a, via irfft(A), per row."""
    n = dev.shape[-1]
    flip = dev[..., (-np.arange(n)) % n]
    return np.fft.rfft(dev) * np.conj(np.fft.rfft(flip))


def _mode_sum(terms: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum over all modes of the real series whose rfft half is ``terms``, per row."""
    total = np.real(terms[..., 0]) + 2.0 * np.real(np.sum(terms[..., 1:-1], axis=-1))
    if n % 2 == 0:
        total += np.real(terms[..., -1])
    else:
        total += 2.0 * np.real(terms[..., -1])
    return total / n


def _grid_peaks(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and index of one grid peak per circular run of near-maximal samples.

    A sample is near-maximal within 1e-9 of its row's span of the maximum.
    Each run contributes its largest sample, the first one met walking right
    from the run's start; a run through index n - 1 continues at index 0.
    """
    n = C.shape[-1]
    c_max = np.max(C, axis=-1)
    span = np.maximum(c_max - np.min(C, axis=-1), 1e-300)
    rows, cols = np.nonzero(C >= (c_max - 1e-9 * span)[:, None])
    new_row = np.ones(len(rows), dtype=bool)
    new_row[1:] = rows[1:] != rows[:-1]
    new_run = new_row.copy()
    new_run[1:] |= cols[1:] - cols[:-1] > 1
    run = np.cumsum(new_run) - 1
    # a row's last run joins its first one when it wraps around the end
    first = np.flatnonzero(new_row)
    last = np.append(first[1:], len(rows)) - 1
    wraps = (cols[first] == 0) & (cols[last] == n - 1) & (run[first] != run[last])
    tail = np.isin(run, run[last[wraps]])
    key = np.where(tail, cols - n, cols)  # walking order within a run
    label = np.arange(run[-1] + 1)
    label[run[last[wraps]]] = run[first[wraps]]
    run = label[run]
    order = np.lexsort((key, -C[rows, cols], run))
    pick = order[np.append(True, run[order[1:]] != run[order[:-1]])]
    return rows[pick], cols[pick]


def _polished_peaks(C: np.ndarray, A: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Row and refined correlation shift delta in [0, L) of every grid peak.

    Parabolic interpolation through the peak and its neighbours, then up to
    three Newton steps on C'(delta) = 0 evaluated by direct mode sums, each
    capped at one grid step; a peak stops where C'' is not negative or a
    mode sum is not finite.
    """
    n, h = grid.n_points, grid.spacing
    rows, m = _grid_peaks(C)
    cm1, c0, cp1 = C[rows, (m - 1) % n], C[rows, m], C[rows, (m + 1) % n]
    denom = cm1 - 2.0 * c0 + cp1
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.where(denom != 0, 0.5 * (cm1 - cp1) / denom, 0.0)
    delta = (m + off) * h

    k = _spectral_tables(n, grid.length)["k"]
    ik = 1j * k
    live = np.ones(len(rows), dtype=bool)
    # near the double range a mode sum can overflow; that peak stops there
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slope_terms, curve_terms = A[rows] * ik, A[rows] * ik**2
        for _ in range(3):
            phases = np.exp(1j * k * delta[:, None])
            d1 = _mode_sum(slope_terms * phases, n)
            d2 = _mode_sum(curve_terms * phases, n)
            live &= (d2 < 0) & np.isfinite(d1) & np.isfinite(d2)
            if not live.any():
                break
            move = d1 / d2
            move = np.where(np.abs(move) > h, np.sign(move) * h, move)
            delta = np.where(live, delta - move, delta)
    return rows, np.mod(delta, grid.length)


def _detect_axes(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best reflection axis, asymmetry and ambiguity of each row of a (B, n) stack.

    The axis maximizes the circular cross-correlation between the row and
    its grid reflection; the grid peak is refined by parabolic interpolation
    and a short Newton polish on the same correlation function.  Asymmetry is
    the relative reflection residual ||u - u(2 axis - .)|| / ||u - mean||.
    """
    n, L, h = grid.n_points, grid.length, grid.spacing
    dev = values - np.mean(values, axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.sqrt(np.sum(dev**2, axis=-1))
        A = _correlation_spectra(dev)
        C = np.fft.irfft(A, n)
        # the asymmetry below squares up to twice the deviation
        finite = np.all(np.isfinite(C)) and np.all(np.isfinite((2.0 * nrm) ** 2))
    if np.any(nrm * np.sqrt(h) <= 1e-12):
        raise ConstantFieldError("symmetry axis of a constant field is undefined")
    if not finite:
        raise NonFiniteFieldError("the field's deviation overflows when squared or correlated")
    rows, deltas = _polished_peaks(C, A, grid)
    halves = np.mod(deltas / 2.0, L / 2.0)
    first = np.flatnonzero(np.append(True, rows[1:] != rows[:-1]))
    base = np.minimum.reduceat(halves, first)
    gap = np.abs(halves - base[rows])
    multi_peak = np.maximum.reduceat(np.minimum(gap, L / 2 - gap) > 1e-6 * L, first)

    # the reflections about base and base + L/2 coincide; label the axis by
    # whichever representative carries the stronger deviation from the mean,
    # and flag a tie (pure modes have equal crest and trough) as ambiguous;
    # several distinct peaks keep the smallest axis, base
    reps = np.stack((base, base + L / 2.0), axis=-1)
    scores = np.abs(np.take_along_axis(dev, np.rint(reps / h).astype(np.int64) % n, axis=-1))
    tie = np.abs(scores[:, 0] - scores[:, 1]) <= 1e-9 * np.maximum(
        np.max(np.abs(dev), axis=-1), 1e-300)
    upper = ~(tie | multi_peak) & (scores[:, 1] > scores[:, 0])
    axes = np.where(upper, reps[:, 1], base)

    refl = _reflected(values, grid, axes)
    asymmetry = np.sqrt(np.sum((values - refl) ** 2, axis=-1)) / nrm
    return np.mod(axes, L), asymmetry, multi_peak | tie


def _unwrap(axes: np.ndarray, period: float) -> np.ndarray:
    out = axes.copy()
    for i in range(1, len(out)):
        jump = out[i] - out[i - 1]
        out[i] -= period * np.round(jump / period)
    return out


def track_axis(traj: Trajectory) -> AxisSeries:
    """Axis of every snapshot with nearest-branch unwrapping.

    The snapshots are detected a block of rows at a time (_value_blocks),
    each row as its one-row stack gives it.
    """
    if len(traj.snapshots) < 3:
        raise ValueError("need at least 3 snapshots to track an axis")
    L = traj.grid.length
    fits = [_detect_axes(block, traj.grid) for _, block in _value_blocks(traj.snapshots)]
    axes = np.concatenate([axes for axes, _, _ in fits])
    asymmetry = np.concatenate([asym for _, asym, _ in fits])
    return AxisSeries(traj.times(), np.mod(_unwrap(axes, L), L), asymmetry)


def verify_theorem(
    traj: Trajectory,
    symmetry_tol: float = 1e-6,
    travel_tol: float = 1e-3,
) -> SymmetryReport:
    """Check that a persistently symmetric trajectory travels rigidly.

    Fits the axis drift rate by least squares, takes the wave speed to be the
    fitted drift, and measures the worst relative mismatch between each
    snapshot and the correspondingly shifted initial profile.
    """
    series = track_axis(traj)
    unwrapped = _unwrap(series.axes.copy(), traj.grid.length)
    coeffs, residuals = np.polyfit(series.times, unwrapped, 1, full=True)[:2]
    lambda_dot = float(coeffs[0])
    resid = float(np.sqrt(residuals[0] / len(series.times))) if residuals.size else 0.0

    # the drift rate of the axis is the translation speed of the profile:
    # reflecting u(t, x) = U(x - c t) about its crest gives axis = c t + const
    speed = lambda_dot

    u0 = traj.snapshots[0].u.values
    later = traj.snapshots[1:]
    shifts = speed * (series.times[1:] - series.times[0])
    travel_error = 0.0
    # the axis detection removes the mean, so a large one passes it and can
    # still overflow these squares
    with np.errstate(over="ignore", invalid="ignore"):
        nrm0 = np.sqrt(np.sum(u0**2))
        for rows, block in _value_blocks(later):
            moved = _shifted(u0, traj.grid, shifts[rows])
            err = np.sqrt(np.sum((block - moved) ** 2, axis=-1)) / nrm0
            travel_error = max(travel_error, float(np.max(err)))
    if not (np.isfinite(nrm0) and np.isfinite(travel_error)):
        raise NonFiniteFieldError("a snapshot overflows when squared in the travel error")

    if np.max(series.asymmetry) > symmetry_tol:
        verdict = Verdict.NOT_SYMMETRIC
    elif travel_error < travel_tol:
        verdict = Verdict.TRAVELING_WAVE_CONSISTENT
    else:
        verdict = Verdict.SYMMETRY_BROKEN

    return SymmetryReport(
        axis_series=series,
        lambda_dot=lambda_dot,
        speed_estimate=speed,
        fit_residual=resid,
        travel_error=travel_error,
        verdict=verdict,
    )
