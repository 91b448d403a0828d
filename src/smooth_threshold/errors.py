"""Shared exception and warning types, the checks of single numbers that
raise ``InputError``, the check of the settings a run reads, and ``_fmt``,
the one text form of a value in a document."""

import math

import numpy as np


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


def _fmt(value) -> str:
    """``value`` as document text; a float, numpy's too, as its repr."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(repr(float(v)) for v in value.ravel()) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def read_settings(names, given: dict, who: str, spell, defaults: dict) -> dict:
    """The settings a run reads: each of ``names`` in order, from ``given``
    where it is set there (not None), else from ``defaults``.

    A name in neither is missing; a set entry of ``given`` outside ``names``
    is not read.  Either is an ``InputError`` naming the run as ``who`` and
    the parameter as ``spell(name)``.
    """
    settings = {}
    for name in names:
        if given.get(name) is not None:
            settings[name] = given[name]
        elif name in defaults:
            settings[name] = defaults[name]
        else:
            raise InputError(f"{who} requires {spell(name)}")
    for name, value in given.items():
        if value is not None and name not in settings:
            raise InputError(f"{who} does not use {spell(name)}; do not pass {spell(name)}")
    return settings
