"""Numerical laboratory for a moderate-amplitude shallow-water wave equation.

Evolves the equation's weak nonlocal form on a periodic grid, constructs
traveling-wave profiles from the associated planar system, and checks the
equivalence between x-symmetric solutions and traveling waves.
"""

__version__ = "0.1.0"

from .evolution import SolverConfig, Termination, Trajectory, detect_breaking, evolve
from .grid import Field, Grid, State
from .operators import helmholtz_inverse, spectral_derivative
from .symmetry import track_axis, verify_theorem
from .traveling_wave import (
    TWParams,
    TWProfile,
    peaked_composite,
    periodic_profile,
    profile_to_field,
    solitary_profile,
)
from .weakform import TestFunction, steady_residual_report, unsteady_weak_residual

__all__ = [
    "__version__",
    "Field",
    "Grid",
    "State",
    "SolverConfig",
    "Termination",
    "Trajectory",
    "evolve",
    "detect_breaking",
    "helmholtz_inverse",
    "spectral_derivative",
    "track_axis",
    "verify_theorem",
    "TWParams",
    "TWProfile",
    "peaked_composite",
    "periodic_profile",
    "profile_to_field",
    "solitary_profile",
    "TestFunction",
    "steady_residual_report",
    "unsteady_weak_residual",
]
