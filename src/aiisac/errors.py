"""Exception types shared across the package, and the one check of each
scalar input rule: positive and finite, >= 0 and finite, [0, 1], an integer."""

import math
from numbers import Integral


class AiIsacError(ValueError):
    """Base class for domain errors raised by this package."""


class BracketError(AiIsacError):
    """Root bracket does not contain a sign change."""


class ConvergenceError(AiIsacError):
    """Iterative solver met a NaN, hit its iteration cap or missed its tolerance,
    or a quadrature rule missed its density's unit mass by too much."""


class DegenerateInputError(AiIsacError):
    """Argument outside its domain (a zero or negative capacity, a matrix that
    is not Hermitian PSD, an unsorted or empty grid) or whose
    result overflows. Like every AiIsacError, it is still a ValueError."""


class SingularMatrixError(AiIsacError):
    """A covariance that must be positive definite is numerically singular."""


class ConfigError(AiIsacError):
    """Malformed or inconsistent run configuration."""


def _check_positive(value: float, name: str) -> None:
    """Raise DegenerateInputError unless value is positive and finite."""
    if not 0.0 < value < math.inf:
        raise DegenerateInputError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(value: float, name: str) -> None:
    """Raise DegenerateInputError unless value is >= 0 and finite."""
    if not 0.0 <= value < math.inf:
        raise DegenerateInputError(f"{name} must be >= 0 and finite, got {value}")


def _check_unit(value: float, name: str) -> None:
    """Raise DegenerateInputError unless value lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise DegenerateInputError(f"{name} must lie in [0,1], got {value}")


def _check_integer(value: int, name: str, lo: float = -math.inf, hi: float = math.inf) -> None:
    """Raise DegenerateInputError unless value is an integer, not a bool, in [lo, hi]."""
    # int first: the Integral ABC check, for numpy's integers, is ~15x slower.
    if isinstance(value, bool) or not (isinstance(value, (int, Integral)) and lo <= value <= hi):
        raise DegenerateInputError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
