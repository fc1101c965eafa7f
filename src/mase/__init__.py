"""Numerical laboratory for a moderate-amplitude shallow-water wave equation.

Evolves the equation's weak nonlocal form on a periodic grid, constructs
traveling-wave profiles from the associated planar system, and checks the
equivalence between x-symmetric solutions and traveling waves.

``import mase`` loads no submodule and no numpy: each exported name imports
the submodule that defines it on first access.
"""

__version__ = "0.1.0"

# each submodule and the names the package exports from it, in __all__ order
_EXPORTS = {
    "grid": ("Field", "Grid", "State"),
    "evolution": ("SolverConfig", "Termination", "Trajectory", "evolve", "detect_breaking"),
    "operators": ("helmholtz_inverse", "spectral_derivative"),
    "symmetry": ("track_axis", "verify_theorem"),
    "traveling_wave": ("TWParams", "TWProfile", "peaked_composite", "periodic_profile",
                       "profile_to_field", "solitary_profile"),
    "weakform": ("TestFunction", "steady_residual_report", "unsteady_weak_residual"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
