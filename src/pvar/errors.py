"""Exception types.  The class alone decides the command-line exit code:
DataError exits 3, NumericError 4; a bad library argument is a ValueError."""


class PvarError(Exception):
    """Base class for all package-specific errors."""


class DataError(PvarError):
    """Input that cannot be read or parsed, or too few observations."""


class NumericError(PvarError):
    """A numerically singular, noncausal or indefinite computation."""
