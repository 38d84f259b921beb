"""Exception types shared across the package."""


class PvarError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PvarError):
    pass


class LagOutOfRange(PvarError):
    pass


class NotCausal(PvarError):
    """The periodic autoregression has no causal stationary solution."""


class NearSingularUnit(PvarError):
    """A structural block matrix that must be invertible is nearly singular."""


class NotPositiveDefinite(PvarError):
    pass


class SingularDesign(PvarError):
    """Regressor cross-product matrix is numerically singular."""


class InsufficientData(PvarError):
    pass


class SingularRestriction(PvarError):
    """Restriction covariance in a Wald statistic is numerically singular."""


class UnsupportedOrder(PvarError):
    """A closed-form expression was requested outside its valid range."""


class ParseError(PvarError):
    """Malformed text input (CSV, model file, or restriction string)."""


class EmptyInput(ParseError):
    pass


class RestrictionParseError(ParseError):
    pass
