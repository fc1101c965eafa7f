import numpy as np
import pytest
from oracles import GridMismatchError, constant_field, require_same_grid, zero_field

from mase.errors import NonFiniteFieldError
from mase.grid import Field, Grid, State


def test_grid_basic():
    g = Grid(64, 32.0)
    assert g.spacing * g.n_points == pytest.approx(g.length, abs=1e-15)
    assert len(g.points) == 64
    assert g.points[1] - g.points[0] == pytest.approx(g.spacing)


@pytest.mark.parametrize("n,length", [(8, 10.0), (15, 1.0), (64, 0.0), (64, -2.0), (64, np.inf)])
def test_grid_rejects_bad_parameters(n, length):
    with pytest.raises(ValueError):
        Grid(n, length)


def test_field_rejects_non_finite():
    g = Grid(16, 1.0)
    vals = np.zeros(16)
    vals[3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        Field(g, vals)
    vals[3] = np.inf
    with pytest.raises(NonFiniteFieldError):
        Field(g, vals)


def test_field_is_immutable():
    g = Grid(16, 1.0)
    f = zero_field(g)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_field_shape_must_match_grid():
    g = Grid(16, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(17))


def test_constant_field_and_norms():
    g = Grid(32, 8.0)
    f = constant_field(g, 2.5)
    assert f.sup_norm() == 2.5
    assert f.mean() == 2.5


def test_require_same_grid():
    a = zero_field(Grid(16, 1.0))
    b = zero_field(Grid(16, 2.0))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def test_state_time_validation():
    g = Grid(16, 1.0)
    with pytest.raises(ValueError):
        State(-1.0, zero_field(g))
    with pytest.raises(ValueError):
        State(np.nan, zero_field(g))
    s = State(0.0, zero_field(g))
    assert s.time == 0.0
