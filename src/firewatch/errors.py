"""Exception types shared across the package, and the checks that every
constructor and law factory applies to its numbers and counts.

The split mirrors the CLI exit codes: configuration/parameter problems exit
with 2, numeric domain problems with 3.
"""

import numbers
import sys

import numpy as np

# Finite means at most the largest float in magnitude: not NaN, and not an
# int too large for a float, on which math.isfinite raises OverflowError.
_MAX_FLOAT = sys.float_info.max


class ParameterError(ValueError):
    """A model, layout or scenario parameter is invalid (e.g. rate <= 0)."""


class DomainError(ValueError):
    """A numeric argument is outside the domain of an operation."""


class EstimatorError(DomainError):
    """An empirical estimator was fed input it cannot work with."""


def check_positive(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is a positive finite number."""
    if not 0 < value <= _MAX_FLOAT:
        raise ParameterError(f"{name} must be positive and finite, got {value}")


def check_finite(name: str, value, low=None) -> None:
    """Raise ParameterError unless ``value`` is a finite number, at least
    ``low`` if given."""
    if not (abs(value) <= _MAX_FLOAT and (low is None or low <= value)):
        bound = "" if low is None else f" and >= {low}"
        raise ParameterError(f"{name} must be finite{bound}, got {value}")


def check_count(name: str, value, low: int, high=float("inf")) -> None:
    """Raise ParameterError unless ``value`` is an integer, not a bool, in
    ``[low, high]``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value <= high):
        raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def as_floats(name: str, value) -> np.ndarray:
    """``value`` as a float array; DomainError where it holds an int too large
    for a float, on which numpy raises OverflowError."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise DomainError(f"{name} must be at most the largest float") from None
