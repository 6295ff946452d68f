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
the byte offset it was detected at.  All spellings are plain ASCII.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExprSyntaxError
from .picard import DivisorClass, PicBasis
from .ring import RingElem, RingPreset
from .scalars import ZERO, digit_limit


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    limit = digit_limit()
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if limit and j - i > limit:
                raise ExprSyntaxError(f"integer literal longer than {limit} digits", i)
            tokens.append(Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# AST nodes -----------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Name:
    name: str
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    pos: int


Node = Union[Num, Name, BinOp, Pow]


@dataclass(frozen=True)
class Expr:
    text: str
    root: Node
    context_label: str


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.idx = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.idx + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.idx]
        if tok.kind != "end":
            self.idx += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.pos)
        return self.next()

    # grammar ---------------------------------------------------------
    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            right = self.term()
            node = BinOp(op.kind, node, right, op.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "*":
            op = self.next()
            right = self.factor()
            node = BinOp("*", node, right, op.pos)
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            exp_tok = self.expect("num", "a nonnegative integer exponent")
            node = Pow(node, int(exp_tok.text), caret.pos)
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            if self.peek(1).kind != "num":
                raise ExprSyntaxError(
                    "'-' may only prefix an integer literal here", tok.pos
                )
            self.next()
            return self.rational(sign=-1, start=tok.pos)
        if tok.kind == "num":
            return self.rational(sign=1, start=tok.pos)
        if tok.kind == "name":
            self.next()
            return Name(tok.text, tok.pos)
        if tok.kind == "(":
            self.next()
            node = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ExprSyntaxError(
                    "unbalanced parentheses: expected ')'", closing.pos
                )
            self.next()
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def rational(self, sign: int, start: int) -> Num:
        num_tok = self.expect("num", "an integer")
        numerator = sign * int(num_tok.text)
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("num", "a denominator")
            denominator = int(den_tok.text)
            if denominator == 0:
                raise ExprSyntaxError("zero denominator in rational literal", den_tok.pos)
            return Num(Fraction(numerator, denominator), start)
        return Num(Fraction(numerator), start)


def _context_names(context) -> tuple[str, tuple[str, ...]]:
    if not isinstance(context, (RingPreset, PicBasis)):
        raise TypeError("context must be a RingPreset or a PicBasis")
    return context.label, context.names


def parse_expression(text: str, context) -> Expr:
    """Parse and resolve every name against the active preset or basis."""
    label, valid_names = _context_names(context)
    parser = _Parser(tokenize(text))
    root = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)

    def check(node: Node) -> None:
        if isinstance(node, Name):
            if node.name not in valid_names:
                raise ExprSyntaxError(
                    f"unknown name {node.name!r} in {label}", node.pos
                )
        elif isinstance(node, BinOp):
            check(node.left)
            check(node.right)
        elif isinstance(node, Pow):
            check(node.base)

    check(root)
    return Expr(text, root, label)


def _refuse_oversized_power(base: Fraction, node: Pow) -> None:
    """Refuse ``base^exponent`` before computing it when its numerator or
    denominator is sure to pass the digit limit: |n| >= 2^(bit_length - 1),
    so the power has at least (bit_length - 1) * exponent bits."""
    limit = digit_limit()
    if not limit:
        return
    bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
    if bits * node.exponent >= (10 ** limit).bit_length():
        raise ExprSyntaxError(
            f"constant power has more than {limit} digits", node.pos
        )


def expr_to_ring(expr: Expr, preset: RingPreset) -> RingElem:
    """Evaluate a parsed expression to a normalized ring element."""

    def ev(node: Node) -> RingElem:
        if isinstance(node, Num):
            return node.value * preset.one()
        if isinstance(node, Name):
            return preset.gen(node.name)
        if isinstance(node, Pow):
            base = ev(node.base)
            if len(base.terms) == 1 and not any(base.terms[0][0]):
                _refuse_oversized_power(base.terms[0][1], node)
            return base ** node.exponent
        if node.op == "+":
            return ev(node.left) + ev(node.right)
        if node.op == "-":
            return ev(node.left) - ev(node.right)
        return ev(node.left) * ev(node.right)

    return ev(expr.root)


def expr_to_class(expr: Expr, basis: PicBasis) -> DivisorClass:
    """Evaluate a parsed expression to a divisor class (linear in generators)."""
    zero = DivisorClass(basis, (ZERO,) * len(basis.names))

    def ev(node: Node) -> tuple[Fraction, DivisorClass]:
        # (constant part, class part)
        if isinstance(node, Num):
            return node.value, zero
        if isinstance(node, Name):
            return ZERO, DivisorClass.from_mapping(basis, {node.name: 1})
        if isinstance(node, Pow):
            const, cls = ev(node.base)
            if cls.is_zero():
                _refuse_oversized_power(const, node)
                return const ** node.exponent, zero
            if node.exponent == 1:
                return const, cls
            raise ExprSyntaxError(
                "powers of divisor-class generators are not defined", node.pos
            )
        (lconst, lcls), (rconst, rcls) = ev(node.left), ev(node.right)
        if node.op == "+":
            return lconst + rconst, lcls + rcls
        if node.op == "-":
            return lconst - rconst, lcls - rcls
        # multiplication: at least one side must be a pure scalar
        if not (lcls.is_zero() or rcls.is_zero()):
            raise ExprSyntaxError(
                "products of divisor-class generators are not defined", node.pos
            )
        return lconst * rconst, rconst * lcls + lconst * rcls

    const, cls = ev(expr.root)
    if const != 0:
        raise ExprSyntaxError(
            "constant terms do not belong to a divisor class", 0
        )
    return cls
