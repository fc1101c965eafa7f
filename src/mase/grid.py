"""Uniform periodic 1-D grids and sampled wave fields.

All spatial data lives on a uniform periodic grid of ``n_points`` samples over
a window of length ``length``; sample j sits at x_j = j * spacing.  Fields are
immutable after construction so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteFieldError, number

# The largest grid: one field of 2**20 doubles is 8 MiB, so a mistyped size
# is refused instead of asking for terabytes.  The tests use at most 8,192.
MIN_POINTS, MAX_POINTS = 16, 2**20
# The largest wavenumber pi/h: the third-derivative multiplier holds (pi/h)^3,
# which must stay below the largest double (its cube root is 5.6e102).
MAX_WAVENUMBER = 1e102


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial discretization.

    n_points is a whole number in [MIN_POINTS, MAX_POINTS] (powers of two give the
    fastest FFTs); length is the spatial period, a finite positive number
    with pi * n_points / length at most MAX_WAVENUMBER.
    """

    n_points: int
    length: float

    def __post_init__(self):
        if not MIN_POINTS <= number("grid.n_points", self.n_points, integer=True) <= MAX_POINTS:
            raise ConfigError(f"grid.n_points must lie in [{MIN_POINTS}, {MAX_POINTS}], "
                              f"got {self.n_points!r}")
        number("grid.length", self.length, positive=True)
        if not np.pi * self.n_points / self.length <= MAX_WAVENUMBER:
            raise ConfigError(f"grid.length must be at least pi * {self.n_points} / "
                              f"{MAX_WAVENUMBER:g} = {np.pi * self.n_points / MAX_WAVENUMBER:.3g} "
                              f"for {self.n_points} points, got {self.length!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "length", float(self.length))

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def points(self) -> np.ndarray:
        """Sample coordinates x_j = j * spacing, j = 0 .. n_points-1."""
        return np.arange(self.n_points) * self.spacing


def _freeze(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Field:
    """Samples of a real function on a periodic grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {arr.shape} does not match grid size ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteFieldError("field values must be finite")
        object.__setattr__(self, "values", _freeze(arr))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mean(self) -> float:
        return float(np.mean(self.values))

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


@dataclass(frozen=True)
class State:
    """A wave profile at one time instant."""

    time: float
    u: Field

    def __post_init__(self):
        if not np.isfinite(self.time) or self.time < 0:
            raise ValueError(f"time must be finite and non-negative, got {self.time!r}")
        object.__setattr__(self, "time", float(self.time))
