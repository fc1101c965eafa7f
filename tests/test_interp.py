"""The numpy piecewise cubic against scipy's, bit for bit.

scipy is a test-only dependency: its CubicHermiteSpline is the oracle the
run-time interpolant must equal.
"""

import numpy as np
import pytest

from mase.traveling_wave import _PiecewiseCubic

CubicHermiteSpline = pytest.importorskip("scipy.interpolate").CubicHermiteSpline


def assert_bitwise(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    # tobytes also tells -0.0 from 0.0, which == does not
    assert ours[~nan].tobytes() == theirs[~nan].tobytes()


def random_knots(rng, n):
    """Strictly increasing knots whose spacings span several decades."""
    return rng.uniform(-3.0, 3.0) + np.cumsum(10.0 ** rng.uniform(-6.0, 1.0, n))


def probe_points(rng, x):
    """Random points inside, every knot (the last one too) and points outside."""
    inside = rng.uniform(x[0], x[-1], 400)
    outside = np.array([x[0] - 1.0, x[0] - 1e-12, x[-1] + 1e-12, x[-1] + 2.5])
    return np.concatenate([inside, x, outside])


@pytest.mark.parametrize("seed", range(6))
def test_hermite_and_derivative_equal_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    x = random_knots(rng, n)
    y = rng.normal(size=n)
    dydx = rng.normal(scale=10.0, size=n)
    pts = probe_points(rng, x)
    ours = _PiecewiseCubic(x, y, dydx)
    theirs = CubicHermiteSpline(x, y, dydx)
    assert_bitwise(ours.c, theirs.c)
    assert_bitwise(ours(pts), theirs(pts))
    assert_bitwise(ours(x[-1]), theirs(x[-1]))
    # the derivative at each interval's left knot is the given slope
    assert_bitwise(ours.c[2], dydx[:-1])


def test_nan_points_give_nan():
    x = np.array([0.0, 1.0, 2.0, 4.0])
    y = np.array([0.0, 1.0, -1.0, 0.5])
    pts = np.array([np.nan, 0.5, np.nan, 4.0])
    hermite = _PiecewiseCubic(x, y, np.ones(4))
    assert_bitwise(hermite(pts), CubicHermiteSpline(x, y, np.ones(4))(pts))


@pytest.mark.parametrize(
    "x, y, dydx",
    [
        ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0], [1.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, -np.inf, 1.0]),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ([0.0], [0.0], [1.0]),
    ],
)
def test_bad_data_raises(x, y, dydx):
    with pytest.raises(ValueError):
        _PiecewiseCubic(x, y, dydx)
