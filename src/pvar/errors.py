"""Exception types; require_int checks an integer (least 1 for a size, season
or df, 0 for a seed, order or term count), require_positive a bandwidth. The
class alone sets the CLI exit code: ValueError, MemoryError 2, DataError 3, else 4."""

from math import inf
from numbers import Integral, Real  # numpy imports numbers too: no extra cost


class PvarError(Exception):
    """Base class for all package-specific errors."""


class DataError(PvarError):
    """Input that cannot be read or parsed, or too few observations."""


class NumericError(PvarError):
    """A numerically singular, noncausal or indefinite computation."""


def require_int(name, value, low):
    """int(value) if it is an integer, numpy's too, not a bool, >= low."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


def require_positive(name, value):
    """float(value) if it is a real, numpy's too, not a bool, in (0, inf)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < inf:
        raise ValueError(f"{name} must be a finite real above 0, got {value!r}")
    return float(value)
