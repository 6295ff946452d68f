"""Exact rational scalars.

Every number in the engine is exact; no floating-point value is ever
constructed.  Outside the ring, a rational is a ``fractions.Fraction``, which
the standard library keeps in lowest terms with a positive denominator.
Inside ``ring``, an element's coefficients are ints over one shared positive
denominator, and they become ``Fraction``s only where they leave it.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import EngineError

ZERO = Fraction(0)


def as_scalar(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def digit_limit() -> int:
    """Python's integer-to-string digit limit; 0 means no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def too_long_to_print() -> EngineError:
    """The error for a number past the digit limit, raised in its place."""
    return EngineError(f"number too long to print: more than {digit_limit()} digits")


def format_scalar(value) -> str:
    """Serialize as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    value = as_scalar(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise too_long_to_print() from None


def recip_factorial(n: int) -> Fraction:
    """1/n!, extended by 0 for negative arguments (a total function)."""
    if n < 0:
        return ZERO
    return Fraction(1, math.factorial(n))
