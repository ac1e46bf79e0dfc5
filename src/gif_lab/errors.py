"""Exception hierarchy shared across the package, and the input rules.

Every error raised by gif_lab derives from GifLabError so callers can
catch domain failures without swallowing programming errors.

A parameter is checked here by the rule of its kind: a scalar is a real or
an integer, not a bool (_real_param, _int_param, _time_param); an array is
a rectangular array of integers or floats (_array_param).  Anything else is
an InvalidParamError, an array of the wrong shape a SizeMismatchError and
one holding NaN or infinity a NonFiniteError.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
import reprlib

import numpy as np

__all__ = [
    "GifLabError",
    "InvalidParamError",
    "OutOfRangeError",
    "DegenerateTimeError",
    "NonFiniteError",
    "NonFiniteStateError",
    "SizeMismatchError",
    "TooLargeError",
    "DegenerateInputError",
    "MissingFieldError",
    "NoRootError",
]


class GifLabError(Exception):
    """Base class for all gif_lab errors."""


class InvalidParamError(GifLabError, ValueError):
    """A constructor or operation received a parameter outside its domain."""


class OutOfRangeError(GifLabError, ValueError):
    """A time or index argument fell outside the permitted interval."""


class DegenerateTimeError(GifLabError, ValueError):
    """An operation was requested at a time where it is not defined."""


class NonFiniteError(GifLabError, ValueError):
    """An input array contained NaN or infinity."""


class NonFiniteStateError(GifLabError, ArithmeticError):
    """An integrator state became non-finite.

    Carries the step index at which the blow-up was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class SizeMismatchError(GifLabError, ValueError):
    """Two arrays that must agree in shape did not."""


class TooLargeError(GifLabError, ValueError):
    """An input exceeds a documented size cap."""


class DegenerateInputError(GifLabError, ValueError):
    """Input admits no meaningful answer (e.g. a regression on identical xs)."""


class MissingFieldError(GifLabError, ValueError):
    """A regularity profile or config lacks a field the operation needs."""


class NoRootError(GifLabError, ValueError):
    """A root-finding problem has no solution in the admissible interval."""


# ---------------------------------------------------------------------------
# scalar parameters: one rule for every constant that a constructor or an
# operation takes, so a bool, a string or a NaN never reaches a formula


@functools.lru_cache(maxsize=None)
def _interval(text: str):
    """Membership test of an interval written like "(0, 1]".  An infinite end
    admits infinity only under a closed bracket; NaN lies in no interval."""
    lo, hi = map(float, text[1:-1].split(","))
    above = operator.lt if text[0] == "(" else operator.le
    below = operator.lt if text[-1] == ")" else operator.le
    return lambda v: above(lo, v) and below(v, hi)


def _real_param(name: str, value, interval: str = "(-inf, inf)") -> float:
    """``value`` as a float if it is a ``numbers.Real`` other than a bool
    (numpy scalars included) inside ``interval``; else InvalidParamError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            v = math.nan
        if _interval(interval)(v):
            return v
    raise InvalidParamError(f"{name} must be a real number in {interval}, got {value!r}")


def _int_param(name: str, value, interval: str = "(-inf, inf)") -> int:
    """``value`` as an int if it is a ``numbers.Integral`` other than a bool
    (numpy integers included) inside ``interval``; else InvalidParamError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        v = int(value)
        if _interval(interval)(v):
            return v
    raise InvalidParamError(f"{name} must be an integer in {interval}, got {value!r}")


def _time_param(name: str, value) -> np.ndarray:
    """``value`` as a float array if it is a ``numbers.Real`` other than a
    bool, or an array of integers or floats; else InvalidParamError.  Only
    the kind is checked here: each caller checks its own range and raises
    OutOfRangeError outside it."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:  # an int beyond the float range
            return np.asarray(math.nan)
    return _real_entries(name, value, "a real time or an array of them")


# ---------------------------------------------------------------------------
# array parameters: one rule for every array, so a ragged list, a string, a
# bool, an empty axis or a NaN never reaches a formula


def _real_entries(name: str, value, what: str) -> np.ndarray:
    """``value`` as a float array (a float64 one as itself) if numpy reads it
    as a rectangular array of integers or floats; else InvalidParamError."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list; numpy < 1.24 makes it an object array
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in "iuf":
        raise InvalidParamError(f"{name} must be {what}, got {reprlib.repr(value)}")
    return arr.astype(float, copy=False)


@functools.lru_cache(maxsize=None)
def _shapes(spec: str) -> re.Pattern:
    """str(shape) of each shape a spec like "a (3,) point or an (n, 3) cloud"
    admits: one per bracketed group, a name any length >= 1, a numeral its own."""
    groups = "|".join(map(re.escape, re.findall(r"\([^)]*\)", spec)))
    return re.compile(re.sub(r"[A-Za-z]\w*", "[1-9][0-9]*", groups))


def _array_param(name: str, value, spec: str | None = None) -> np.ndarray:
    """_real_entries' array if ``spec`` admits its shape (any shape without a
    spec; else SizeMismatchError) and its entries are finite (else
    NonFiniteError).  A caller that keeps the array copies it."""
    arr = _real_entries(name, value, "a rectangular array of integers or floats")
    if spec is not None and not _shapes(spec).fullmatch(str(arr.shape)):
        raise SizeMismatchError(f"{name}: expected {spec}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr
