"""Exception types shared across the package."""


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
