"""Exact rational scalars.

Every number in the engine is exact; no floating-point value is ever
constructed.  A ring element, a divisor class and a row of a linear system
hold integer numerators over one shared positive denominator (``ratio``
splits an input value into that form), and arithmetic on them works on
ints.  A rational becomes a ``fractions.Fraction``, which the standard
library keeps in lowest terms with a positive denominator, where it leaves
them: a coefficient read by name, a solution, a pairing, a printed report.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import EngineError

ZERO = Fraction(0)


def ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an int,
    Fraction or "p/q" string."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    return value.numerator, value.denominator


def digit_limit() -> int:
    """Python's integer-to-string digit limit; 0 means no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def too_long_to_print() -> EngineError:
    """The error for a number past the digit limit, raised in its place."""
    return EngineError(f"number too long to print: more than {digit_limit()} digits")


def format_ratio(numerator: int, denominator: int) -> str:
    """Serialize numerator/denominator, for a positive denominator, in
    lowest terms as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if denominator != 1:
        common = math.gcd(numerator, denominator)
        numerator, denominator = numerator // common, denominator // common
    try:
        if denominator == 1:
            return str(numerator)
        return f"{numerator}/{denominator}"
    except ValueError:
        raise too_long_to_print() from None


def format_scalar(value) -> str:
    """Serialize an int, Fraction or "p/q" as ``format_ratio`` does."""
    return format_ratio(*ratio(value))


def recip_factorial(n: int) -> Fraction:
    """1/n!, extended by 0 for negative arguments (a total function)."""
    if n < 0:
        return ZERO
    return Fraction(1, math.factorial(n))
