"""Shared fixtures; the expensive runs are session-scoped and reused."""

import dataclasses
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import max_slope_loop

import mase
from mase.cli import _write_run
from mase.evolution import SolverConfig, evolve
from mase.grid import Field, Grid, State
from mase.scenarios import scenario_from_dict
from mase.traveling_wave import profile_to_field, solitary_profile


def pytest_report_header(config):
    # the checkout's src/ or an installed package: whichever the tests import
    return f"mase {mase.__version__} from {Path(mase.__file__).parent}"


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
    s0 = max_slope_loop(u0)
    cfg = SolverConfig(
        t_end=60.0, snapshot_interval=0.6, breaking_slope_threshold=10.5 * s0
    )
    return evolve([State(0.0, u0)], cfg)[0], s0


@pytest.fixture()
def written_breaking(tmp_path):
    """breaking.json as a run with the breaking analysis writes it for a trajectory."""
    def write(traj) -> dict:
        run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        scenario = scenario_from_dict({
            "grid": {"n_points": traj.grid.n_points, "length": traj.grid.length},
            "solver": dataclasses.asdict(traj.config), "analysis": {"breaking": True}})
        _write_run(scenario, traj, run_dir, 0, time.perf_counter())
        return json.loads((run_dir / "breaking.json").read_text())

    return write
