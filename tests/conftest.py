"""Shared fixtures; the expensive runs are session-scoped and reused."""

import numpy as np
import pytest

from mase.evolution import SolverConfig, evolve, _max_slope
from mase.grid import Field, Grid, State
from mase.traveling_wave import profile_to_field, solitary_profile


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def grid512():
    return Grid(512, 40.0)


@pytest.fixture(scope="session")
def solitary_c12():
    return solitary_profile(1.2)


@pytest.fixture(scope="session")
def tw_trajectory(solitary_c12):
    """Solitary wave at c=1.2 evolved to t=10 on 1024 points."""
    grid = Grid(1024, 120.0)
    u0 = profile_to_field(solitary_c12, grid, center=60.0)
    cfg = SolverConfig(t_end=10.0, snapshot_interval=0.5)
    return evolve([State(0.0, u0)], cfg)[0]


@pytest.fixture(scope="session")
def gaussian_trajectory():
    """Symmetric Gaussian (amplitude 0.1, width L/20) evolved to t=20."""
    grid = Grid(512, 40.0)
    x = grid.points
    w = grid.length / 20.0
    u0 = Field(grid, 0.1 * np.exp(-((x - grid.length / 2) ** 2) / (2 * w * w)))
    cfg = SolverConfig(t_end=20.0, snapshot_interval=0.25)
    return evolve([State(0.0, u0)], cfg)[0]


@pytest.fixture(scope="session")
def breaking_trajectory():
    """Long low-mode wave that steepens into detected breaking.

    Localized steep bumps disperse before blowing up; a long wave outruns
    the bounded linear dispersion and its front steepens without limit.
    """
    grid = Grid(1024, 300.0)
    x = grid.points
    u0 = Field(grid, 0.25 * np.sin(2 * np.pi * x / grid.length))
    s0 = _max_slope(u0.values, grid)
    cfg = SolverConfig(
        t_end=60.0, snapshot_interval=0.6, breaking_slope_threshold=10.5 * s0
    )
    return evolve([State(0.0, u0)], cfg)[0], s0
