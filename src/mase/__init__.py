"""Numerical laboratory for a moderate-amplitude shallow-water wave equation.

Evolves the equation's weak nonlocal form on a periodic grid, constructs
traveling-wave profiles from the associated planar system, and checks the
equivalence between x-symmetric solutions and traveling waves.
"""

__version__ = "0.1.0"

from .evolution import SolverConfig, Termination, Trajectory, detect_breaking, evolve, step
from .grid import Field, Grid, State, constant_field, zero_field
from .operators import (
    helmholtz_inverse,
    reaction_term,
    spectral_derivative,
)
from .symmetry import detect_axis, reflect, track_axis, verify_theorem
from .traveling_wave import (
    TWParams,
    TWProfile,
    peaked_composite,
    periodic_profile,
    profile_to_field,
    solitary_profile,
)
from .weakform import (
    TestFunction,
    reflection_bracket_check,
    steady_weak_residual,
    unsteady_weak_residual,
)

__all__ = [
    "__version__",
    "Field",
    "Grid",
    "State",
    "constant_field",
    "zero_field",
    "SolverConfig",
    "Termination",
    "Trajectory",
    "evolve",
    "step",
    "detect_breaking",
    "helmholtz_inverse",
    "reaction_term",
    "spectral_derivative",
    "detect_axis",
    "reflect",
    "track_axis",
    "verify_theorem",
    "TWParams",
    "TWProfile",
    "peaked_composite",
    "periodic_profile",
    "profile_to_field",
    "solitary_profile",
    "TestFunction",
    "reflection_bracket_check",
    "steady_weak_residual",
    "unsteady_weak_residual",
]
