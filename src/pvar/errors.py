"""Exception types and require_int, the one check of an integer argument.
The class alone decides the command-line exit code: DataError exits 3,
NumericError 4; a bad library argument is a ValueError."""

from numbers import Integral  # numpy imports numbers too: no extra cost


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
