"""Exception types shared across the package."""


class AiIsacError(ValueError):
    """Base class for domain errors raised by this package."""


class BracketError(AiIsacError):
    """Root bracket does not contain a sign change."""


class ConvergenceError(AiIsacError):
    """Iterative solver met a NaN or hit its iteration cap, or a quadrature
    rule missed its density's unit mass by too much to average with."""


class DegenerateBudgetError(AiIsacError):
    """Capacity budget of zero bits; the equivalent noise is unbounded."""


class DegenerateInputError(AiIsacError):
    """Input carries no usable signal (e.g. zero covariance) or lies outside
    its domain: a negative power, gain or weight, an unknown fading kind or
    objective mode, an empty or non-positive grid."""


class SingularMatrixError(AiIsacError):
    """A covariance that must be positive definite is numerically singular."""


class UnobservableParameterError(AiIsacError):
    """Fisher information is zero; the CRLB is unbounded."""


class DegenerateFitError(AiIsacError):
    """Scaling-law fit requested on a gap sequence that is not strictly positive."""


class ConfigError(AiIsacError):
    """Malformed or inconsistent run configuration."""
