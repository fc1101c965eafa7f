import numpy as np
import pytest
from oracles import (
    GridMismatchError,
    _nonlinear_spectra,
    _rhs_values,
    constant_field,
    evolution_rhs,
    kernel_convolve,
    local_form_residual,
    random_band_limited,
    reaction_term,
    reflect_loop,
    zero_field,
)

from mase.errors import DerivativeOrderError, NonFiniteFieldError
from mase.grid import Field, Grid, State
from mase.operators import helmholtz_inverse, spectral_derivative


@pytest.fixture()
def grid():
    return Grid(256, 40.0)


# ---------------------------------------------------------------------------
# spectral_derivative


def test_derivative_of_constant_is_zero(grid):
    f = constant_field(grid, 3.7)
    assert spectral_derivative(f, 1).sup_norm() == 0.0


@pytest.mark.parametrize("order,factor", [(1, 1.0), (2, -1.0)])
def test_derivative_of_single_mode(grid, order, factor):
    k = 2 * np.pi / grid.length
    x = grid.points
    u = Field(grid, np.sin(k * x))
    expected = factor * k**order * (np.cos(k * x) if order == 1 else np.sin(k * x))
    got = spectral_derivative(u, order)
    assert np.max(np.abs(got.values - expected)) < 1e-12


def test_derivative_rejects_bad_order(grid):
    f = zero_field(grid)
    for order in (0, 4, -1):
        with pytest.raises(DerivativeOrderError):
            spectral_derivative(f, order)


# ---------------------------------------------------------------------------
# reaction_term (the test oracle the fused right-hand side is checked against)


def test_reaction_of_zero_is_zero(grid):
    assert reaction_term(zero_field(grid)).sup_norm() == 0.0


def test_reaction_of_one_is_thirteen(grid):
    r = reaction_term(constant_field(grid, 1.0))
    assert np.max(np.abs(r.values - 13.0)) < 1e-12


def test_reaction_small_amplitude_linearizes(grid):
    # independent term-by-term oracle from the closed form of eps*sin
    eps = 1e-6
    k = 2 * np.pi / grid.length
    x = grid.points
    s = np.sin(k * x)
    u = Field(grid, eps * s)
    oracle = (
        2 * eps * s
        + 10 * (eps * s) ** 2
        - 2 * (eps * s) ** 3
        + 3 * (eps * s) ** 4
        - 7 * (eps * k * np.cos(k * x)) ** 2
    )
    r = reaction_term(u)
    assert np.max(np.abs(r.values - oracle)) < 1e-17
    # R is 2u to relative error O(eps)
    rel = np.max(np.abs(r.values - 2 * u.values)) / (2 * eps)
    assert rel < 20 * eps


def test_reaction_parity(grid, rng):
    # even input about a grid axis stays even
    u = random_band_limited(grid, rng, amplitude=0.2)
    axis = grid.points[37]
    ue = Field(grid, 0.5 * (u.values + reflect_loop(u, axis).values))
    r = reaction_term(ue)
    assert np.max(np.abs(r.values - reflect_loop(r, axis).values)) < 1e-12


def test_reaction_rejects_non_finite(grid):
    with pytest.raises(NonFiniteFieldError):
        Field(grid, np.full(grid.n_points, np.nan))


# ---------------------------------------------------------------------------
# helmholtz_inverse and kernel_convolve


def test_helmholtz_constant(grid):
    p = helmholtz_inverse(constant_field(grid, 4.2))
    assert np.max(np.abs(p.values - 4.2)) < 1e-12


def test_helmholtz_single_mode(grid):
    m = 3
    k = 2 * np.pi * m / grid.length
    u = Field(grid, np.cos(k * grid.points))
    p = helmholtz_inverse(u)
    assert np.max(np.abs(p.values - u.values / (1 + k * k))) < 1e-13


def test_helmholtz_roundtrip(rng):
    grid = Grid(512, 40.0)
    f = random_band_limited(grid, rng, amplitude=0.7)
    p = helmholtz_inverse(f)
    res = p.values - spectral_derivative(p, 2).values - f.values
    assert np.max(np.abs(res)) < 1e-10 * max(1.0, f.sup_norm())


def test_helmholtz_smoothing(rng):
    grid = Grid(512, 40.0)
    f = random_band_limited(grid, rng, amplitude=1.3)
    assert helmholtz_inverse(f).sup_norm() <= f.sup_norm() + 1e-12


def test_kernel_convolve_zero_and_unit_mass(grid):
    assert kernel_convolve(zero_field(grid)).sup_norm() == 0.0
    # the kernel has unit mass; the leftover is the next quadrature term
    p = kernel_convolve(constant_field(grid, 1.0))
    assert np.max(np.abs(p.values - 1.0)) < 1e-8


def test_kernel_convolve_matches_multiplier(rng):
    # a short period is where many kernel images overlap
    for length in (40.0, 5.0):
        grid = Grid(512, length)
        f = random_band_limited(grid, rng, amplitude=0.5)
        direct = kernel_convolve(f)
        spectral = helmholtz_inverse(f)
        assert np.max(np.abs(direct.values - spectral.values)) < 1e-6


# ---------------------------------------------------------------------------
# evolution_rhs and local_form_residual


def test_rhs_zero_and_constant_are_equilibria(grid):
    assert evolution_rhs(State(0.0, zero_field(grid))).sup_norm() == 0.0
    assert evolution_rhs(State(0.0, constant_field(grid, 0.4))).sup_norm() < 1e-14


def test_local_residual_trivials(grid):
    z = zero_field(grid)
    assert local_form_residual(z, z).sup_norm() == 0.0
    c = constant_field(grid, 0.8)
    assert local_form_residual(c, z).sup_norm() < 1e-13


def test_local_residual_grid_mismatch(grid):
    other = Grid(256, 20.0)
    with pytest.raises(GridMismatchError):
        local_form_residual(zero_field(grid), zero_field(other))


def test_local_nonlocal_equivalence(rng):
    # (1 - dxx) applied to the nonlocal residual reproduces the local form
    grid = Grid(512, 40.0)
    for _ in range(5):
        u = random_band_limited(grid, rng, amplitude=0.1)
        ut = random_band_limited(grid, rng, amplitude=0.1)
        nl = Field(grid, ut.values - evolution_rhs(State(0.0, u)).values)
        lhs = nl.values - spectral_derivative(nl, 2).values
        loc = local_form_residual(u, ut)
        assert np.max(np.abs(lhs - loc.values)) < 1e-6


def test_local_residual_vanishes_on_rhs(rng):
    grid = Grid(512, 40.0)
    u = random_band_limited(grid, rng, amplitude=0.1)
    ut = evolution_rhs(State(0.0, u))
    assert local_form_residual(u, ut).sup_norm() < 1e-6


def test_rhs_matches_unfused_composition(rng):
    # d/dx (u + 7 u^2) - d/dx H R(u) from the public operators, one dealiased
    # product per power, against the fused five-transform right-hand side
    for n in (64, 256, 1024):
        grid = Grid(n, 40.0)
        u = random_band_limited(grid, rng, amplitude=0.3)
        u2 = np.fft.irfft(_nonlinear_spectra(u.values, grid)["u2h"], n)
        flux = u.with_values(u.values + 7.0 * u2 - helmholtz_inverse(reaction_term(u)).values)
        ref = spectral_derivative(flux, 1).values
        assert np.max(np.abs(_rhs_values(u.values, grid) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rhs_equivariance_and_zero_mean():
    # exact in exact arithmetic for any real data: every product is alias-free
    # in the kept band, so shifts and reflections commute with the dealiasing
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        n=st.sampled_from([64, 256, 1024]),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.01, 1.0),
        shift=st.integers(-2048, 2048),
    )
    def check(n, seed, amplitude, shift):
        grid = Grid(n, 40.0)
        # modes up to n/8: the quartic term reaches past the kept band n/3
        v = random_band_limited(grid, np.random.default_rng(seed), amplitude).values
        rhs = _rhs_values(v, grid)
        scale = np.max(np.abs(rhs))
        shifted = _rhs_values(np.roll(v, shift), grid)
        assert np.max(np.abs(shifted - np.roll(rhs, shift))) <= 1e-13 * scale
        mirror = np.roll(v[::-1], 1)  # u(-x) on the grid
        reflected = _rhs_values(mirror, grid)
        assert np.max(np.abs(reflected + np.roll(rhs[::-1], 1))) <= 1e-13 * scale
        assert abs(np.mean(rhs)) <= 1e-13 * scale

    check()
