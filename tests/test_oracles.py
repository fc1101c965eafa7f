"""The oracles check the package's coefficient record instead of sharing it."""

import sys

import numpy as np
import pytest
from oracles import evolution_rhs, linear_phase_speed, local_form_residual, random_band_limited

from mase import operators
from mase.evolution import SolverConfig, evolve
from mase.grid import Field, Grid, State


@pytest.fixture()
def wrong_record(monkeypatch):
    """Change one coefficient wherever a mase module binds the record."""

    def patch(name: str, wrong) -> None:
        original = getattr(operators, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "mase" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrong)
        operators._rhs_tables.cache_clear()

    yield patch
    operators._rhs_tables.cache_clear()


@pytest.mark.parametrize(
    "name,wrong",
    [("REACTION", (0.0, 2.5, 10.0, -2.0, 3.0)), ("SLOPE_SQ", -6.0)],
    ids=["linear-reaction", "slope-squared"],
)
def test_oracles_catch_a_wrong_coefficient_record(wrong_record, name, wrong):
    wrong_record(name, wrong)
    if name == "REACTION":
        # the acceptance-4 measurement on mode 1; the linear law sees only
        # the linear coefficients
        grid = Grid(256, 40.0)
        k = 2 * np.pi / grid.length
        u0 = Field(grid, 1e-5 * np.cos(k * grid.points))
        traj = evolve([State(0.0, u0)], SolverConfig(t_end=5.0, snapshot_interval=0.5))[0]
        phases = np.unwrap([np.angle(np.fft.rfft(s.u.values)[1]) for s in traj.snapshots])
        measured = -np.polyfit(traj.times(), phases, 1)[0] / k
        assert abs(measured - linear_phase_speed(k)) > 1e-2
    u = random_band_limited(Grid(512, 40.0), np.random.default_rng(1010), amplitude=0.1)
    assert local_form_residual(u, evolution_rhs(State(0.0, u))).sup_norm() > 1e-3
