"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    COMPOSITE,
    PhasePoint,
    concatenate_segments_unchecked,
    evolution_rhs,
    first_integral_uv,
    integrate_orbit,
    kernel_convolve,
    linear_phase_speed,
    local_form_residual,
    max_slope_loop,
    mirror_profile,
    orbit_segment,
    random_band_limited,
    reaction_term,
    reflection_bracket_check,
    rk4_step,
)

from mase.cli import main
from mase.evolution import SolverConfig, Termination, evolve
from mase.grid import Field, Grid, State
from mase.operators import helmholtz_inverse, spectral_derivative
from mase.symmetry import Verdict, verify_theorem
from mase.traveling_wave import (
    TWParams,
    TWProfile,
    peaked_composite,
    singular_line,
    solitary_profile,
    uxx_coeff_poly,
)
from mase.weakform import TestFunction, _steady_residuals


def _ok(n, name):
    print(f"ACCEPTANCE {n:2d} ({name}): PASS")


def test_acceptance_01_helmholtz_consistency():
    grid = Grid(512, 40.0)
    rng = np.random.default_rng(101)
    for _ in range(100):
        u = random_band_limited(grid, rng, amplitude=float(rng.uniform(0.02, 0.3)))
        r = reaction_term(u)
        p = helmholtz_inverse(r)
        roundtrip = p.values - spectral_derivative(p, 2).values - r.values
        assert np.max(np.abs(roundtrip)) < 1e-10 * max(1.0, r.sup_norm())
        # quadrature oracle against the multiplier on the band-limited field
        direct = kernel_convolve(u)
        assert np.max(np.abs(direct.values - helmholtz_inverse(u).values)) < 1e-6
    _ok(1, "helmholtz consistency")


def test_acceptance_02_local_nonlocal_equivalence():
    grid = Grid(512, 40.0)
    rng = np.random.default_rng(202)
    for _ in range(20):
        u = random_band_limited(grid, rng, amplitude=0.1)
        ut = random_band_limited(grid, rng, amplitude=0.1)
        nl = ut.values - evolution_rhs(State(0.0, u)).values
        nl_f = Field(grid, nl)
        lhs = nl_f.values - spectral_derivative(nl_f, 2).values
        local = local_form_residual(u, ut)
        assert np.max(np.abs(lhs - local.values)) < 1e-6
    _ok(2, "local/nonlocal equivalence")


def test_acceptance_03_integrator_order_and_mean():
    grid = Grid(128, 40.0)
    x = grid.points
    u0 = 0.2 * np.exp(-((x - 20.0) ** 2) / (2 * 3.0**2))

    def run(dt, T=2.0):
        vh = np.fft.rfft(u0)
        for _ in range(int(round(T / dt))):
            vh = rk4_step(vh, grid, dt)[0]
        return np.fft.irfft(vh, grid.n_points)

    ref = run(2.0 / 1600)
    errs = [np.max(np.abs(run(dt) - ref)) for dt in (0.05, 0.025, 0.0125)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    for order in orders:
        assert 3.7 < order < 4.3

    big = Grid(256, 40.0)
    u0f = Field(big, 0.1 * np.exp(-((big.points - 20.0) ** 2) / 8.0) + 0.02)
    traj = evolve([State(0.0, u0f)], SolverConfig(t_end=2.0, snapshot_interval=0.5))[0]
    means = [s.u.mean() for s in traj.snapshots]
    drift_per_time = max(abs(m - means[0]) for m in means) / 2.0
    assert drift_per_time < 1e-10
    _ok(3, f"integrator order {orders[0]:.2f}/{orders[1]:.2f}, mean drift {drift_per_time:.1e}")


def test_acceptance_04_linear_dispersion():
    grid = Grid(256, 40.0)
    for m in (1, 2, 3):
        k = 2 * np.pi * m / grid.length
        u0 = Field(grid, 1e-5 * np.cos(k * grid.points))
        traj = evolve([State(0.0, u0)], SolverConfig(t_end=5.0, snapshot_interval=0.5))[0]
        phases = np.unwrap([np.angle(np.fft.rfft(s.u.values)[m]) for s in traj.snapshots])
        slope = np.polyfit(traj.times(), phases, 1)[0]
        measured = -slope / k
        assert abs(measured - linear_phase_speed(k)) < 1e-3
    _ok(4, "linear dispersion")


def test_acceptance_05_first_integral_suite():
    rng = np.random.default_rng(505)
    params = TWParams(1.2, 0.0, 0.0)
    u = rng.uniform(-3.0, 3.0, 1_000_000)
    v = rng.uniform(-3.0, 3.0, 1_000_000)
    assert np.array_equal(first_integral_uv(u, v, params), first_integral_uv(u, -v, params))

    for u0 in (0.03, 0.08):
        us, vs = integrate_orbit(PhasePoint(u0, 0.0), params, 1e-4, 1000)
        # stays away from the singular line
        assert np.min(np.abs(uxx_coeff_poly(params)(us))) > 1e-3
        h = first_integral_uv(us, vs, params)
        assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) < 1e-8

    for c in rng.uniform(-4.0, 4.0, 100):
        p = TWParams(float(c))
        assert abs(uxx_coeff_poly(p)(singular_line(p))) < 1e-14
    _ok(5, "first-integral suite")


def test_acceptance_06_traveling_wave_certification(solitary_c12):
    prof = solitary_c12
    centers = (0.0, 3.0, 6.0, -5.0, 10.0, -12.0, 15.0, 8.0, -3.0, 20.0)
    widths = (4.0, 3.0, 5.0, 4.0, 3.5, 4.5, 5.0, 2.5, 3.0, 6.0)
    bumps = [TestFunction(c, w) for c, w in zip(centers, widths)]
    residuals = _steady_residuals(prof, bumps)
    assert len(bumps) >= 10
    for r in residuals:
        assert abs(r) < 1e-4

    perturbed = TWProfile(TWParams(1.3, 0.0, 0.0), prof.xi, prof.values,
                          prof.regularity, prof.period, prof.slopes, prof.evaluator)
    pert = _steady_residuals(perturbed, bumps)
    assert max(abs(r) for r in pert) >= 10.0 * max(abs(r) for r in residuals)
    _ok(6, f"tw certification (max residual {max(abs(r) for r in residuals):.1e})")


def test_acceptance_07_theorem_verification(tw_trajectory):
    rep = verify_theorem(tw_trajectory, symmetry_tol=1e-6, travel_tol=1e-3)
    assert tw_trajectory.grid.n_points == 1024
    assert rep.verdict is Verdict.TRAVELING_WAVE_CONSISTENT
    assert abs(rep.speed_estimate - 1.2) < 1e-3
    assert rep.travel_error < 1e-3
    assert np.max(rep.axis_series.asymmetry) < 1e-6
    _ok(7, f"theorem verification (speed err {abs(rep.speed_estimate - 1.2):.1e}, "
           f"travel err {rep.travel_error:.1e})")


def test_acceptance_08_contrapositive(gaussian_trajectory):
    rep = verify_theorem(gaussian_trajectory)
    asym = rep.axis_series.asymmetry
    assert rep.verdict is Verdict.NOT_SYMMETRIC
    assert asym[0] < 1e-8
    assert np.max(asym) > 1e-2
    _ok(8, f"contrapositive (early asym {asym[0]:.1e}, max {np.max(asym):.1e})")


def test_acceptance_09_wave_breaking(breaking_trajectory):
    traj, s0 = breaking_trajectory
    assert traj.termination is Termination.BREAKING_DETECTED
    final = traj.snapshots[-1]
    growth = max_slope_loop(final.u) / s0
    sup0 = traj.snapshots[0].u.sup_norm()
    change = abs(final.u.sup_norm() - sup0) / sup0
    assert growth >= 10.0
    assert change < 0.2
    _ok(9, f"wave breaking (slope growth {growth:.1f}x, amplitude change {change:.1%})")


def test_acceptance_10_reflection_bracket():
    grid = Grid(512, 40.0)
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        u = random_band_limited(grid, rng, amplitude=0.05)
        lam = float(rng.uniform(0.0, grid.length))
        phi = TestFunction(float(rng.uniform(6.0, 34.0)), float(rng.uniform(2.0, 5.0)))
        lhs, rhs = reflection_bracket_check(u, lam, phi)
        gap = abs(lhs + rhs) / max(1.0, abs(rhs))
        worst = max(worst, gap)
        assert gap < 1e-8
    _ok(10, f"reflection bracket (worst {worst:.1e})")


def test_acceptance_11_composite_waves():
    good = peaked_composite(-3.0, -1.0, n_points=8192)
    corner = float(good.xi[np.argmax(good.values)])

    # evenness about the corner junction
    vals = good.values
    i = int(np.argmax(vals))
    k = min(i, len(vals) - i - 1)
    assert np.max(np.abs(vals[i + 1:i + k] - vals[i - 1:i - k:-1])) < 1e-8

    # bumps centered on a symmetry point have no power; probe off-center
    probes = [TestFunction(corner + off, 1.2) for off in (-2.2, -1.6, 1.6, 2.2)]
    r_good = max(abs(r) for r in _steady_residuals(good, probes))

    # mismatched-energy composite: the descent continues on a different level
    params = good.params
    p2 = TWParams(params.speed, params.integration_constant, params.energy * 1.1)
    trough = float(good.values.min())
    s1 = orbit_segment(params, trough, -0.5, n_samples=2049)
    s2 = orbit_segment(p2, -0.5, 0.0, n_samples=2049)
    raw = concatenate_segments_unchecked([s1, s2, mirror_profile(s2), mirror_profile(s1)])
    total = float(raw.xi[-1])
    n = 8192
    xi_u = np.arange(n) * (total / n)
    vals_u = raw.evaluator(xi_u)
    slopes_u = np.gradient(vals_u, total / n)
    bad = TWProfile(params, xi_u, vals_u, COMPOSITE, period=total, slopes=slopes_u)
    j1 = float(s1.xi[-1])
    centers = (j1, j1 + float(s2.xi[-1]) - 0.8, total / 2 - 1.0)
    r_bad = max(abs(r) for r in _steady_residuals(bad, [TestFunction(c, 1.2) for c in centers]))
    assert r_bad >= 10.0 * r_good
    _ok(11, f"composite waves (same-E {r_good:.1e} vs mismatched {r_bad:.1e})")


def test_acceptance_12_determinism(tmp_path):
    from oracles import sha256_file

    def tree(root: Path) -> dict:
        return {
            str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "run.log"
        }

    scenario = {
        "grid": {"n_points": 128, "length": 40.0},
        "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
        "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
        "analysis": {"symmetry": True, "weakform": True, "breaking": True},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg), "--out", str(r1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(r2)]) == 0
    assert tree(r1) == tree(r2)

    sweep = {
        "command": "simulate",
        "base": scenario,
        "sweep": {"initial.amplitude": [0.02, 0.05, 0.08]},
    }
    scfg = tmp_path / "sweep.json"
    scfg.write_text(json.dumps(sweep))
    s1, s4 = tmp_path / "s1", tmp_path / "s4"
    assert main(["sweep", "--config", str(scfg), "--out", str(s1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(scfg), "--out", str(s4), "--workers", "4"]) == 0
    assert tree(s1) == tree(s4)
    _ok(12, "determinism")
