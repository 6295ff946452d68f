"""Top intersection numbers of tautological Chern monomials on the product
of a curve with a Brill-Noether locus inside its Jacobian.

With c_i = e_i(x_1..x_{r+1}) in the Chern roots, a root monomial x^e
integrates (against eta and the matching theta power) to g! times the
Harris-Tu determinant det[1/(b + e_j - j + l)!], b = g - d + r.
``evaluate_taut`` never expands a class into root monomials.  It
integrates prod_k c_k^{m_k} in two steps:

* The determinant depends on the row offsets e_j - j only up to the sign
  of sorting them, so against a symmetric factor a Schur function s_lambda
  integrates like the single monomial x^lambda.  The product of c_1, c_2,
  ... is expanded in Schur functions by the Pieri rule (c_k = s_(1^k) adds
  a vertical strip, c_1 one box), which gives the shapes lambda with
  positive integer multiplicities; an evaluation sums them per shape.
* Each shape's determinant is a Vandermonde product in closed form
  (``_integrate_shapes``): with c_j = b + lambda_j - j it is
  prod_{j<k} (c_j - c_k) / prod_j (c_j + r)!, the hook-length formula.

The class is read as integer numerators, every shape's term is an integer
over one common power of a factorial, and only the final value is a
rational: one Fraction per evaluation.  The cost is the number of shapes,
the partitions of at most rho into at most r+1 parts.

``evaluate_taut_recursion`` eliminates c_2, c_3, ... by the h^1 = 1 relation
c_{i+1} = theta^i c_1 / i! - i theta^{i+1} / (i+1)!.  Against eta, theta
only fills the degree, so it rewrites the c-exponents that the core reads,
not ring elements: c_{i+1} acts as ((i+1) c_1 - i) / (i+1)!, and each
monomial becomes an integer polynomial in c_1 over a product of factorials,
integrated by the same Pieri step and closed form.  What ``genus12.side``'s
agreement check compares is two paths to the value: the rewritten class
meets only the Pieri shapes of c_1, while the raw integrand also goes
through the vertical strips of c_2..c_{r+1}.  So the check covers the
rewrite and the e_k strips, not the closed form both routes share; the
independent routes are the oracles of the test suite.  Their agreement on
every valid-degree monomial is the package's main internal safety net.

Both evaluators take only a k-free class homogeneous of degree rho+1 on
curve x W^r_d; anything else raises RingDomainError rather than
integrating to a silent 0.

The degree-1 kernel class k stands for the first Chern class of the dual
kernel line bundle of the defining bundle morphism of a degeneracy locus.
``restrict_to_locus`` is the one place it is consumed: it turns a class on
the locus into a k-free ambient class, multiplying the k-free part by the
locus class and pushing k down to the next class of the same Chern series
(``degeneracy_classes``).  A locus is named by its rank-2 source bundle,
given as that bundle's inverse total Chern series
(``jet_bundle_inverse_chern`` or ``point_pair_inverse_chern``); this module
knows nothing of which locus a caller means.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, PresetMismatchError, RingDomainError
from .numerics import rho
from .record import Record, memo
from .ring import (
    JACOBIAN,
    RingElem,
    RingPreset,
    geometric_series,
    preset_jacobian_product,
)

class BNContext(Record):
    """Fixed (g, r, d) together with the matching ring preset."""

    __slots__ = ("g", "r", "d", "preset")

    @property
    def rho(self) -> int:
        return rho(self.g, self.r, self.d)

    @property
    def dim_total(self) -> int:
        # dimension of curve x Brill-Noether locus
        return self.rho + 1


def bn_context(g: int, r: int, d: int) -> BNContext:
    value = rho(g, r, d)  # refuses a non-int g, r or d first
    if value < 0:
        raise PreconditionError(
            f"negative Brill-Noether number rho({g},{r},{d}) = {value}"
        )
    if g - d + r < 0:
        # every degree-d line bundle then has r+1 sections: the locus is the
        # whole Picard variety, not a degeneracy locus of expected dimension
        raise PreconditionError(
            f"g - d + r = {g - d + r} < 0: W^{r}_{d} is all of Pic^{d} in genus {g}"
        )
    return BNContext(g, r, d, preset_jacobian_product(g, d, r))


# ---------------------------------------------------------------------------
# Schur shapes and their closed-form integrals
# ---------------------------------------------------------------------------

Shape = tuple[int, ...]  # a partition, padded with zeros to r+1 parts


def _vertical_strips(shape: Shape, k: int) -> list[Shape]:
    """Partitions obtained from ``shape`` by adding k boxes, no two in one
    row, within the same number of rows (the dual Pieri rule for e_k)."""
    if k == 1:  # one box in any addable row
        return [shape[:i] + (part + 1,) + shape[i + 1:]
                for i, part in enumerate(shape) if i == 0 or shape[i - 1] > part]
    rows = len(shape)
    out: list[Shape] = []
    todo = [(0, k, ())]  # (next row, boxes left, the rows before it), depth first
    while todo:
        i, left, grown = todo.pop()
        if left == 0:
            out.append(grown + shape[i:])
        elif rows - i >= left:
            part = shape[i]
            if i == 0 or grown[-1] > part:
                todo.append((i + 1, left - 1, grown + (part + 1,)))
            todo.append((i + 1, left, grown + (part,)))  # popped first
    return out


@memo
def _schur_expansion(rows: int, exponents: tuple[int, ...]) -> tuple[tuple[Shape, int], ...]:
    """prod_k e_k^{m_k} in Schur functions of ``rows`` variables, with
    ``exponents`` = (m_1, m_2, ...): ((shape, multiplicity), ...).

    e_k = s_(1^k), and each factor adds a vertical strip (for c_1 = e_1 one
    box in any addable row); shapes with more than ``rows`` parts vanish.
    Multiplicities are positive integers."""
    shapes = {(0,) * rows: 1}
    for k, mult in enumerate(exponents, start=1):
        for _ in range(mult):
            grown: dict[Shape, int] = {}
            for shape, count in shapes.items():
                for bigger in _vertical_strips(shape, k):
                    grown[bigger] = grown.get(bigger, 0) + count
            shapes = grown
    return tuple(shapes.items())


def _c_parts(ctx: BNContext, e: RingElem) -> list[tuple[tuple[int, ...], int]]:
    """The (c_1..c_{r+1} exponents, numerator) parts of ``e``, read in one
    walk that refuses anything but a k-free class homogeneous of degree
    rho+1: a class with k lives on a degeneracy locus, and one of another
    degree would integrate to a silent 0.  Monomials containing gamma or
    missing eta integrate to zero and are left out."""
    if e.preset != ctx.preset:
        raise PresetMismatchError("element does not live in the context's preset")
    index, degree = ctx.preset.index, ctx.preset.monomial_degree
    eta, gamma, c1, k = index("eta"), index("gamma"), index("c1"), index("k")
    degrees = set()
    parts = []
    for mono, n in e.numerators:
        if mono[k]:
            raise RingDomainError(
                "kernel class k present: integrate bn.restrict_to_locus(ctx, e, source)"
                " instead"
            )
        degrees.add(degree(mono))
        if mono[eta] == 1 and not mono[gamma]:
            parts.append((mono[c1:k], n))  # c_1..c_{r+1} lie between theta and k
    if degrees and degrees != {ctx.dim_total}:
        raise RingDomainError(
            f"integrand must be homogeneous of degree rho+1 = {ctx.dim_total};"
            f" got degrees {sorted(degrees)}"
        )
    return parts


def _shape_weights(ctx: BNContext, parts) -> dict[Shape, int]:
    """The integer weight of each Schur shape in the (c-exponents, numerator)
    ``parts``, each expanded in Schur functions."""
    weights: dict[Shape, int] = {}
    for exponents, n in parts:
        for shape, count in _schur_expansion(ctx.r + 1, exponents):
            weights[shape] = weights.get(shape, 0) + n * count
    return weights


def _integrate_shapes(ctx: BNContext, weights: dict[Shape, int], den: int) -> Fraction:
    """g!/den * sum of weight * L(s_shape) over the integer ``weights``,
    where L is the Harris-Tu functional x^e -> det[1/(b + e_j - j + l)!],
    b = g - d + r.

    With c_j = b + shape_j - j, 1/(c_j + l)! = (c_j + r)...(c_j + l + 1) /
    (c_j + r)!, and the falling product is monic of degree r - l in c_j, so
    unitriangular column operations leave the Vandermonde matrix [c_j^(r-l)]:

        L(s_shape) = prod_{j<k} (c_j - c_k) / prod_j (c_j + r)!,

    the hook-length formula for f^nu / |nu|!, nu = shape + (b^(r+1)).  Each
    shape's term is an integer over top!^(r+1), top = b + r + the largest
    first part, summed into one Fraction.
    """
    r = ctx.r
    base = ctx.g - ctx.d + r
    top = base + r + max((shape[0] for shape in weights), default=0)
    over = [1] * (top + 1)  # over[m] = top!/m!
    for m in range(top, 0, -1):
        over[m - 1] = over[m] * m
    total = 0
    for shape, weight in weights.items():
        c = [base + part - j for j, part in enumerate(shape)]
        term = weight
        for j, cj in enumerate(c):
            term *= over[cj + r]
            for ck in c[j + 1:]:
                term *= cj - ck
        total += term
    return Fraction(total * math.factorial(ctx.g), over[0] ** (r + 1) * den)


# ---------------------------------------------------------------------------
# Degeneracy loci and the kernel class
# ---------------------------------------------------------------------------

def total_chern_dual(preset: RingPreset) -> RingElem:
    """1 + c_1 + ... + c_{r+1} (the dual tautological total Chern class)."""
    r = preset.param("r")
    total = preset.one()
    for i in range(1, r + 2):
        total = total + preset.gen(f"c{i}")
    return total


def jet_bundle_inverse_chern(preset: RingPreset, curve_genus: int, line_degree: int) -> RingElem:
    """Inverse total Chern class of the dual first-jet bundle of a degree-d
    Poincare bundle on a curve of genus g: the product of the geometric
    series of d*eta + gamma and (2g-2+d)*eta + gamma.  At (11, 14) this is
    1 + 48*eta + 2*gamma - 6*eta*theta."""
    if curve_genus < 1 or line_degree < 0:
        raise PreconditionError(
            "jet Chern series needs curve_genus >= 1 and line_degree >= 0"
        )
    eta = preset.gen("eta")
    gamma = preset.gen("gamma")
    first = geometric_series(line_degree * eta + gamma)
    second = geometric_series((2 * curve_genus - 2 + line_degree) * eta + gamma)
    return first * second


def point_pair_inverse_chern(preset: RingPreset, line_degree: int) -> RingElem:
    """Inverse total Chern class of the dual rank-2 evaluation bundle at a
    moving point plus a fixed point."""
    if line_degree < 0:
        raise PreconditionError("point-pair Chern series needs line_degree >= 0")
    eta = preset.gen("eta")
    gamma = preset.gen("gamma")
    return geometric_series(line_degree * eta + gamma) * (preset.one() - eta)


@memo
def degeneracy_classes(ctx: BNContext, source: RingElem) -> tuple[RingElem, RingElem]:
    """(locus class, kernel push-down) of the degeneracy locus of a morphism
    from a rank-2 source bundle, given by its inverse total Chern series
    ``source``, to the rank r+1 tautological bundle.

    The locus class is c_r(target^dual - source^dual).  Resolving the locus
    inside the projectivized source bundle and pushing down gives, for any
    class xi,

        (integral over the locus of) c_1(Ker^dual) . xi
            = c_{r+1}(target^dual - source^dual) . xi   on the ambient space,

    so both classes are graded pieces of one Chern series (Harris-Tu,
    Fulton 14.4), and the push-down already carries the locus factor.  An
    inverse total Chern class starts with 1; any other ``source`` is refused.
    """
    if source.homogeneous_part(0) != source.preset.one():
        raise RingDomainError("a source Chern series must have constant term 1")
    total = total_chern_dual(ctx.preset) * source
    return total.homogeneous_part(ctx.r), total.homogeneous_part(ctx.r + 1)


def split_kernel_class(e: RingElem) -> tuple[RingElem, RingElem]:
    """Split into (k-free part, k-linear part with k stripped).

    A monomial of k-degree two or more is a hard error: the pipeline's
    integrands are k-linear, so a square signals a caller bug rather than
    an excess-intersection situation this evaluator could silently absorb.
    """
    if e.preset.kind != JACOBIAN:
        raise RingDomainError("the kernel class lives on the jacobian preset")
    k = e.preset.index("k")
    free: dict = {}
    linear: dict = {}
    for mono, n in e.numerators:
        if mono[k] == 0:
            free[mono] = n
        elif mono[k] == 1:
            # the jacobian normal form does not look at k: still normalized
            linear[mono[:k] + (0,) + mono[k + 1:]] = n
        else:
            raise RingDomainError(
                "kernel class appears with exponent >= 2; excess intersection"
                " is outside this evaluator's scope"
            )
    return tuple(RingElem.reduced(e.preset, part, e.denominator) for part in (free, linear))


def restrict_to_locus(ctx: BNContext, e: RingElem, source: RingElem) -> RingElem:
    """The k-free ambient class standing for ``e`` restricted to the
    degeneracy locus of ``source``: (k-free part) . [locus] + (k-linear
    part) . push-down, with k stripped from the k-linear part (see
    ``degeneracy_classes``)."""
    locus, push = degeneracy_classes(ctx, source)
    free, linear = split_kernel_class(e)
    return free * locus + push * linear


# ---------------------------------------------------------------------------
# The two evaluators
# ---------------------------------------------------------------------------

def evaluate_taut(ctx: BNContext, e: RingElem) -> Fraction:
    """Evaluate a k-free tautological class of degree rho+1 against
    curve x Brill-Noether locus.

    Monomials containing gamma or missing eta integrate to zero; the
    others are expanded in Schur shapes, each integrated in closed form
    (see the module docstring).
    """
    return _integrate_shapes(ctx, _shape_weights(ctx, _c_parts(ctx, e)), e.denominator)


def evaluate_taut_recursion(ctx: BNContext, e: RingElem) -> Fraction:
    """``evaluate_taut`` after the h^1 = 1 rewrite of c_2..c_{r+1}, done on
    the c-exponents with no ring arithmetic (see the module docstring): the
    powers of c_1, over one lcm of factorial products, go through the same
    Pieri step and closed form.  Not an independent evaluator: the agreement
    check in ``genus12.side`` covers the rewrite and the e_k strips, not what
    both routes share.  Valid only when g - d + r = 1 (h^1 = 1 across the
    locus) and the next Brill-Noether locus is empty; other contexts are
    refused.
    """
    if ctx.g - ctx.d + ctx.r != 1 or rho(ctx.g, ctx.r + 1, ctx.d) >= 0:
        raise PreconditionError(
            "the h^1 = 1 recursion needs g - d + r = 1 and an empty next"
            " Brill-Noether locus"
        )
    parts = _c_parts(ctx, e)
    dens = [math.prod(math.factorial(i) ** m for i, m in enumerate(exponents[1:], start=2))
            for exponents, _ in parts]
    den = math.lcm(*dens)
    powers = [0] * ctx.dim_total  # of c_1, 0..rho
    for (exponents, n), part_den in zip(parts, dens):
        poly = [0] * exponents[0] + [n * (den // part_den)]  # lowest power first
        for i, m in enumerate(exponents[1:], start=1):
            for _ in range(m):  # times (i+1) c_1 - i
                poly = [(i + 1) * lower - i * same for lower, same in zip([0] + poly, poly + [0])]
        for p, coeff in enumerate(poly):
            powers[p] += coeff
    pad = (0,) * ctx.r  # the key evaluate_taut gives a pure c_1 power
    weights = _shape_weights(ctx, [((p,) + pad, n) for p, n in enumerate(powers) if n])
    return _integrate_shapes(ctx, weights, den * e.denominator)
