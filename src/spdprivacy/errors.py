"""Exception types, and the integer check, shared across the package."""

import operator


class SpdPrivacyError(Exception):
    """Base class for all package errors."""


class DomainError(SpdPrivacyError, ValueError):
    """An input value lies outside the mathematical domain of an operation."""


class DimensionError(SpdPrivacyError, ValueError):
    """Matrix or vector shapes are inconsistent with each other."""


class NumericalError(SpdPrivacyError, RuntimeError):
    """A numerical routine failed to converge or produced unusable output."""


def _nonnegative_int(
    value, what: str = "stream path element", error: type[SpdPrivacyError] = DomainError
) -> int:
    """``value`` as a Python int, or ``error`` when it is not a nonnegative
    integer (floats are rejected, not truncated; numpy integers pass)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be a nonnegative integer, got {value!r}") from None
    if value < 0:
        raise error(f"{what} must be a nonnegative integer, got {value}")
    return value
