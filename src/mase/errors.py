"""Exception types shared across the package, and the one rule for numbers from outside."""

import math
import reprlib


class MaseError(Exception):
    """Base class for all package errors."""


class NonFiniteFieldError(MaseError, ValueError):
    """Field construction or an operation received NaN/Inf values."""


class DerivativeOrderError(MaseError, ValueError):
    """Spectral derivative order outside the supported set {1, 2, 3}."""


class NonexistenceError(MaseError, ValueError):
    """No traveling-wave orbit exists for the requested parameters.

    The message names the obstruction (no turning point, sign change of the
    denominator before contact, origin not a saddle, ...).
    """


class ConstantFieldError(MaseError, ValueError):
    """The symmetry axis of a (numerically) constant field is undefined."""


class SupportError(MaseError, ValueError):
    """A test function's support does not fit the sampled window."""


class ConfigError(MaseError, ValueError):
    """Invalid scenario or solver configuration."""


def number(name: str, raw, *, positive: bool = False, integer: bool = False):
    """``raw`` unchanged if it is a finite number, else ConfigError naming ``name``.

    A number is what JSON can hold: an int or a float, not a bool, a string or
    null, and an int only if it fits in a double.  ``positive`` asks for a
    value above 0 and ``integer`` for a whole one (64 or 64.0).
    """
    try:
        ok = (isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw)
              and (raw > 0 or not positive) and (float(raw).is_integer() or not integer))
    except OverflowError:  # an int beyond the double range
        ok = False
    if not ok:
        kind = f"a finite {'positive ' if positive else ''}{'whole ' if integer else ''}number"
        raise ConfigError(f"{name} must be {kind}, got {reprlib.repr(raw)}")
    return raw
