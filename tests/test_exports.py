"""Every name the package exports resolves, and the removed names stay gone."""

import importlib
import pkgutil

import mase

# one-row wrappers and reference code that left the package: the CLI runs
# none of them, and the references among them live in tests/oracles.py
REMOVED = {
    "AxisFit", "BlowUpError", "COMPOSITE", "GridMismatchError", "SingularLineError",
    "constant_field", "detect_axis", "level_tangencies", "reaction_term", "reflect",
    "reflection_bracket_check", "shift_field", "steady_weak_residual", "step",
    "turning_points", "zero_field",
}


def test_every_exported_name_resolves_and_no_removed_name_is_back():
    modules = [mase] + [importlib.import_module(f"mase.{info.name}")
                        for info in pkgutil.iter_modules(mase.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
    assert not REMOVED & set(mase.__all__)
