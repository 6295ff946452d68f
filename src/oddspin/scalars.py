"""Exact rational scalars, and the one representation of exact values.

Every number in the engine is exact; no floating-point value is ever
constructed.  A ring element, a divisor class and a row of a linear system
hold integer numerators over one shared positive denominator (gcd-reduced
rational arithmetic, Knuth, TAOCP vol. 2, 4.5.1): ``over_lcm`` turns int
and Fraction inputs into that form, arithmetic accumulates ints over
a common denominator and then divides out the content, so the stored form
is canonical (gcd(denominator, *numerators) is 1, zero is over 1) and
equal values are equal records with equal hashes.  ``render_terms`` prints
a sum in that form.  A rational becomes a ``fractions.Fraction``, which the
standard library keeps in lowest terms with a positive denominator, where
it leaves the form: a coefficient read by name, a solution, a pairing, a
printed report.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import EngineError, PreconditionError

ZERO = Fraction(0)
_INT = {int}  # the types over_lcm passes through unchanged


def ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an int or
    Fraction."""
    if isinstance(value, int):
        return value, 1
    if not isinstance(value, Fraction):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    return value.numerator, value.denominator


def require_int(name: str, value) -> None:
    """Refuse a ``value`` whose type is not int (a bool, float, Fraction or
    str) with PreconditionError: the one gate for a genus, rank, degree or index."""
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int, got {value!r}")


def over_lcm(values) -> tuple[list[int], int]:
    """Int or Fraction values as integer numerators, in order, over the
    least common multiple of their lowest-terms denominators.

    The numerators and that denominator are coprime: for each prime p of
    the lcm, some value's denominator q holds p as often as the lcm does,
    so p divides neither that value's numerator (in lowest terms) nor
    lcm/q, and so not their product, the value's new numerator."""
    values = list(values)
    if _INT.issuperset(map(type, values)):
        return values, 1
    pairs = [ratio(value) for value in values]
    den = math.lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


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
    """Serialize an int or Fraction as ``format_ratio`` does."""
    return format_ratio(*ratio(value))


def render_terms(pairs: list[tuple[str, int]], den: int) -> str:
    """Deterministic ASCII rendering of the sum of numerator * body over
    the positive ``den``, for (body, nonzero numerator) pairs, that
    re-parses under the CLI grammar; an empty body is a constant term."""
    if not pairs:
        return "0"
    out = []
    for idx, (body, num) in enumerate(pairs):
        if idx:
            out.append(" + " if num > 0 else " - ")
            num = abs(num)
        if not body:
            out.append(format_ratio(num, den))
        elif num == den:
            out.append(body)
        elif num == -den:
            out.append(f"-1*{body}")
        else:
            out.append(f"{format_ratio(num, den)}*{body}")
    return "".join(out)

