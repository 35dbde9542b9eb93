"""Exception hierarchy shared across the package."""


class RisceError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(RisceError):
    """Matrix dimensions are inconsistent with each other or with the config."""


class SingularGram(RisceError):
    """A Gram matrix is singular or too ill-conditioned to invert reliably."""


class InvalidPsi(RisceError):
    """Spatial correlation coefficient outside [0, 1)."""


class InvalidDims(RisceError):
    """A dimension violates a structural precondition (e.g. tau < K)."""


class InvalidGrouping(RisceError):
    """Group size does not evenly divide the number of RIS elements."""


class ConfigError(RisceError):
    """Malformed experiment configuration (bad key, value, or combination)."""
