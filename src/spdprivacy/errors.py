"""Exception types, and the integer check and stage clock the package shares."""

import operator
import time


class SpdPrivacyError(Exception):
    """Base class for all package errors."""


class DomainError(SpdPrivacyError, ValueError):
    """An input value lies outside the mathematical domain of an operation."""


class DimensionError(SpdPrivacyError, ValueError):
    """Matrix or vector shapes are inconsistent with each other."""


class NumericalError(SpdPrivacyError, RuntimeError):
    """A numerical routine failed to converge or produced unusable output."""


def _checked_int(
    value,
    what: str,
    low: int = 1,
    high: int | None = None,
    error: type[SpdPrivacyError] = DomainError,
) -> int:
    """``value`` as a Python int in [low, high] (no upper bound when ``high``
    is None), else ``error``.  Floats and strings are rejected, never
    truncated; numpy integers pass.  Matrix sizes pass
    :class:`DimensionError`, counts keep :class:`DomainError`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{what} must be {bound}, got {value}")
    return value


def _timed(stages: dict, name: str, fn, *args):
    """``fn(*args)``, its ns added to ``stages[name]``."""
    start = time.perf_counter_ns()
    result = fn(*args)
    stages[name] += time.perf_counter_ns() - start
    return result
