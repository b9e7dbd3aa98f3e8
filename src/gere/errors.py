"""Exception types shared across the package, and the two range rules that
every setting and argument is checked with."""

import math


class GereError(Exception):
    """Base class for all package errors."""


class DataError(GereError):
    """Malformed or inconsistent input data (files, records, checksums)."""


class TrainingError(GereError):
    """A training update produced a non-finite loss or gradient norm."""


class DecodingError(GereError):
    """Inference-time failure: a beam in which no hypothesis could finish."""


def at_least(name: str, value, low) -> None:
    """Raise `ValueError` unless `value` is at least `low`."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def finite_positive(name: str, value) -> None:
    """Raise `ValueError` unless `value` is a finite number above 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
