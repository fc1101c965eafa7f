"""Uniform periodic 1-D grids and sampled wave fields.

All spatial data lives on a uniform periodic grid of ``n_points`` samples over
a window of length ``length``; sample j sits at x_j = j * spacing.  Fields are
immutable after construction so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteFieldError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial discretization.

    n_points must be at least 16 (powers of two give the fastest FFTs);
    length is the spatial period.
    """

    n_points: int
    length: float

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 16:
            raise ValueError(f"n_points must be an integer >= 16, got {self.n_points!r}")
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"length must be a positive real, got {self.length!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "length", float(self.length))

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def points(self) -> np.ndarray:
        """Sample coordinates x_j = j * spacing, j = 0 .. n_points-1."""
        return np.arange(self.n_points) * self.spacing

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers matching numpy's rfft layout."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing)


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
