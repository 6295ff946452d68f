"""Expression language shared by the CLI and reports.

Grammar (letter for letter):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := rational | name | '(' expr ')'
    rational := int ('/' nat)?
    name     := "eta"|"gamma"|"theta"|"c"nat|"k"|"lambda"|"alpha"nat
               |"beta"nat|"delta"nat|"F1"|"F2"|"Delta"|"omega"

Integers are signed (the minus of a leading literal belongs to the
literal), exponents and denominators are unsigned, and every error carries
the byte offset it was detected at.  All spellings are plain ASCII: any
other character, a non-ASCII digit, letter or space too, is refused.

Parsing and evaluation are iterative, so neither the length nor the
nesting depth of an expression meets Python's recursion limit.  One
left-to-right pass over the tokens writes a postfix program, after
Dijkstra's operator-precedence ("shunting-yard") idea, with each literal
as a pair of ints in lowest terms; one stack machine runs that program
over either algebra, ring elements or (constant, divisor class) pairs.
Each run of '+'/'-' terms is one step that sums all of its terms at once.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ExprSyntaxError, PreconditionError
from .picard import DivisorClass, PicBasis
from .record import memo
from .ring import RingElem, RingPreset
from .scalars import ZERO, digit_limit

Token = tuple[str, str, int]  # (kind, text, byte offset)


_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens.  Only ASCII digits and letters make
    literals and names (``str.isdigit`` would also take '\u00b2' and
    '\u0663'), so every character before a refusal is one byte."""
    tokens = []
    i, n = 0, len(text)
    limit = digit_limit()
    while i < n:
        ch = text[i]
        if ch in " \t\n\r\f\v":
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if limit and j - i > limit:
                raise ExprSyntaxError(f"integer literal longer than {limit} digits", i)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < n and text[j] in _LETTERS:
                j += 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class Expr:
    """A parsed expression as a postfix program of (kind, value, offset) steps.

    ``num`` pushes a (numerator, positive denominator) pair in lowest terms
    and ``name`` a generator; ``^`` raises the top operand to the integer
    ``value``; ``*`` multiplies the top two; ``+`` replaces the top
    ``len(value)`` operands by their sum, each with its sign in ``value``.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: list[tuple[str, object, int]]):
        self.steps = steps


def _rational(tokens: list[Token], i: int, steps: list) -> int:
    """Append the signed literal starting at ``tokens[i]``; return the index after it."""
    kind, _, start = tokens[i]
    sign = 1
    if kind == "-":
        if tokens[i + 1][0] != "num":
            raise ExprSyntaxError("'-' may only prefix an integer literal here", start)
        sign, i = -1, i + 1
    numerator = sign * int(tokens[i][1])
    if tokens[i + 1][0] != "/":
        steps.append(("num", (numerator, 1), start))
        return i + 1
    kind, text, pos = tokens[i + 2]
    if kind != "num":
        raise ExprSyntaxError("expected a denominator", pos)
    denominator = int(text)
    if denominator == 0:
        raise ExprSyntaxError("zero denominator in rational literal", pos)
    common = math.gcd(numerator, denominator)
    steps.append(("num", (numerator // common, denominator // common), start))
    return i + 3


def _sum_step(signs: list[int], pos: int, steps: list) -> None:
    if len(signs) > 1:
        steps.append(("+", tuple(signs), pos))


def parse_expression(text: str, context) -> Expr:
    """Parse and resolve every name against the active preset or basis."""
    if not isinstance(context, (RingPreset, PicBasis)):
        raise PreconditionError("context must be a RingPreset or a PicBasis")
    tokens = tokenize(text)
    steps: list = []
    # one frame per open group: the signs of its terms so far, and the offset
    # of a '*' whose right factor is still being read (None when none is)
    frames = [[[1], None]]
    i = 0
    while True:
        # operand state: a group opens, or an atom is read
        kind, word, pos = tokens[i]
        if kind == "(":
            frames.append([[1], None])
            i += 1
            continue
        if kind == "name":
            steps.append(("name", word, pos))
            i += 1
        elif kind in ("num", "-"):
            i = _rational(tokens, i, steps)
        else:
            raise ExprSyntaxError(f"unexpected token {word!r}", pos)
        # operator state: the factor's exponent, then each ')' that closes a
        # group (with its own exponent), then the next binary operator
        while True:
            if tokens[i][0] == "^":
                kind, word, pos = tokens[i + 1]
                if kind != "num":
                    raise ExprSyntaxError("expected a nonnegative integer exponent", pos)
                steps.append(("^", int(word), tokens[i][2]))
                i += 2
            frame = frames[-1]
            if frame[1] is not None:
                steps.append(("*", None, frame[1]))
                frame[1] = None
            kind, word, pos = tokens[i]
            if kind != ")" or len(frames) == 1:
                break
            _sum_step(frames.pop()[0], pos, steps)
            i += 1
        if kind == "*":
            frame[1] = pos
        elif kind in ("+", "-"):
            frame[0].append(1 if kind == "+" else -1)
        elif len(frames) > 1:
            raise ExprSyntaxError("unbalanced parentheses: expected ')'", pos)
        elif kind == "end":
            break
        else:
            raise ExprSyntaxError(f"unexpected trailing input {word!r}", pos)
        i += 1
    _sum_step(frames[0][0], pos, steps)
    # names are checked once the whole input has parsed, in textual order, so
    # a syntax error anywhere wins over an unknown name before it
    for kind, name, pos in steps:
        if kind == "name" and name not in context.names:
            raise ExprSyntaxError(f"unknown name {name!r} in {context.label}", pos)
    return Expr(steps)


def _run(expr: Expr, leaf, power, product, total):
    """Run ``expr``'s program over one algebra and return its value.

    ``leaf(kind, value)`` makes an operand, ``power(base, exponent, pos)``
    and ``product(left, right, pos)`` combine them, and ``total`` sums an
    iterable of (sign, operand) pairs.
    """
    leaf = functools.cache(leaf)  # operands are immutable: make each once
    stack = []
    for kind, value, pos in expr.steps:
        if kind == "^":
            stack.append(power(stack.pop(), value, pos))
        elif kind == "*":
            right = stack.pop()
            stack.append(product(stack.pop(), right, pos))
        elif kind == "+":
            n = len(value)
            stack[-n:] = [total(zip(value, stack[-n:]))]
        else:
            stack.append(leaf(kind, value))
    return stack.pop()


@memo
def _bits_of_power_of_ten(limit: int) -> int:
    """The bit length of 10^limit, computed once per digit limit."""
    return (10 ** limit).bit_length()


def _refuse_oversized_power(numerator: int, denominator: int, exponent: int, pos: int) -> None:
    """Refuse ``(numerator/denominator)^exponent`` before computing it when a
    part in lowest terms is sure to pass the digit limit: |n| >=
    2^(bit_length - 1), so the power has at least (bit_length - 1) * exponent
    bits."""
    limit = digit_limit()
    common = math.gcd(numerator, denominator)
    bits = max((numerator // common).bit_length(), (denominator // common).bit_length()) - 1
    if limit and bits > 0 and bits * exponent >= _bits_of_power_of_ten(limit):
        raise ExprSyntaxError(f"constant power has more than {limit} digits", pos)


def expr_to_ring(expr: Expr, preset: RingPreset) -> RingElem:
    """Evaluate a parsed expression to a normalized ring element."""
    constant = (0,) * len(preset.names)

    def leaf(kind: str, value) -> RingElem:
        if kind == "name":
            return preset.gen(value)
        # a literal in lowest terms is a canonical constant element
        return RingElem(preset, ((constant, value[0]),), value[1]) if value[0] else preset.zero()

    def power(base: RingElem, exponent: int, pos: int) -> RingElem:
        terms = base.numerators
        if len(terms) == 1:  # the coefficient is raised unless the monomial's power drops
            mono, numerator = terms[0]
            if (RingElem(preset, ((mono, 1),), 1) ** exponent).is_zero():
                numerator = 0
        else:
            # every generator has positive degree, so the constant term of
            # the power is exactly the power of the base's constant term (the last)
            numerator = dict(terms[-1:]).get(constant, 0)
        _refuse_oversized_power(numerator, base.denominator, exponent, pos)
        return base ** exponent

    return _run(expr, leaf, power, lambda left, right, pos: left * right, preset.weighted_sum)


def expr_to_class(expr: Expr, basis: PicBasis) -> DivisorClass:
    """Evaluate a parsed expression to a divisor class (linear in generators)."""
    zero = DivisorClass(basis, (0,) * len(basis.names), 1)

    # operands are (constant part, class part) pairs
    def leaf(kind: str, value) -> tuple[Fraction, DivisorClass]:
        if kind == "num":
            return Fraction(*value), zero
        return ZERO, DivisorClass.from_mapping(basis, {value: 1})

    def power(base, exponent: int, pos: int):
        const, cls = base
        if cls.is_zero():
            _refuse_oversized_power(const.numerator, const.denominator, exponent, pos)
            return const ** exponent, zero
        if exponent == 1:
            return base
        raise ExprSyntaxError("powers of divisor-class generators are not defined", pos)

    def product(left, right, pos: int):
        (lconst, lcls), (rconst, rcls) = left, right
        if not (lcls.is_zero() or rcls.is_zero()):
            raise ExprSyntaxError(
                "products of divisor-class generators are not defined", pos
            )
        return lconst * rconst, rconst * lcls + lconst * rcls

    def total(signed):
        signed = list(signed)
        const = sum((sign * c for sign, (c, _) in signed), ZERO)
        return const, DivisorClass.weighted_sum(basis, ((sign, cls) for sign, (_, cls) in signed))

    const, cls = _run(expr, leaf, power, product, total)
    if const != 0:
        raise ExprSyntaxError("constant terms do not belong to a divisor class", 0)
    return cls
