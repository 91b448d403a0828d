"""Shared exception and warning types, and the checks of single numbers
that raise ``InputError``."""

import math


class InputError(ValueError):
    """Raised when user-supplied data, configuration, or file content is invalid."""


class NumericError(RuntimeError):
    """Raised when a numerical routine fails to reach its accuracy contract."""


class ConvergenceWarning(UserWarning):
    """Emitted when an iterative routine stops on a budget rather than its tolerance."""


def _positive_int(value, name: str) -> int:
    if not float(value).is_integer() or int(value) < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _nonneg_int(value, name: str) -> int:
    if not float(value).is_integer() or int(value) < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _positive_real(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InputError(f"{name} must be a positive real, got {value!r}")
    return value


def _nonneg_real(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise InputError(f"{name} must be a nonnegative real, got {value!r}")
    return value
