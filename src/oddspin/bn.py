"""Top intersection numbers of tautological Chern monomials on the product
of a curve with a Brill-Noether locus inside its Jacobian.

With c_i = e_i(x_1..x_{r+1}) in the Chern roots, a root monomial x^e
integrates (against eta and the matching theta power) to g! times the
Harris-Tu determinant det[1/(b + e_j - j + l)!], b = g - d + r.
``evaluate_taut`` never expands a class into root monomials.  It
integrates c_1^n prod_{k>=2} c_k^{m_k} in two steps:

* c_1 = p_1 = x_1 + ... + x_{r+1}.  The determinant is multilinear in its
  rows and row j depends on x_j alone, so with p_1^n = n! [t^n]
  prod_j exp(t x_j) the whole symmetric sum over exponents is n! [t^n] of
  one determinant of truncated power series, row j holding
  sum_e t^e/e! * 1/(b + o_j + e + l)!.
* The determinant depends on the row offsets o_j = e_j - j only up to the
  sign of sorting them, so against a symmetric factor a Schur function
  s_lambda integrates like the single monomial x^lambda.  The product of
  c_2, c_3, ... is expanded in Schur functions by the dual Pieri rule
  (c_k = s_(1^k) adds a vertical strip), which gives the offsets
  lambda_j - j with positive integer multiplicities.

The class is read as integer numerators, rows are scaled to integers and
the determinant is fraction-free (``linalg.series_det``); only the final
value is a rational.  A shape's determinant at order n truncates the one at
any higher order, so each (rows, b, shape) takes one determinant, kept at
the highest order asked in a bounded process memo (``_shape_series``).

``evaluate_taut_recursion`` eliminates c_2, c_3, ... by the h^1 = 1 relation
c_{i+1} = theta^i c_1 / i! - i theta^{i+1} / (i+1)!, one power per image and
exponent, and hands the polynomial in c_1 and theta, summed once, to
``evaluate_taut``.  Both evaluators read the zero-shape determinant from
that memo: it is computed once and shared, since recomputing a deterministic
function never made the cross-check independent.  What the check compares is
two paths to the value: the rewritten class meets only the p_1 series of the
zero shape, while the raw integrand also goes through the Pieri expansion of
c_2..c_{r+1} and the shifted rows of the other shapes.  Their agreement on
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
from functools import cache, lru_cache

from .errors import PreconditionError, PresetMismatchError, RingDomainError
from .linalg import series_det
from .numerics import rho
from .record import Record
from .ring import (
    JACOBIAN,
    RingElem,
    RingPreset,
    geometric_series,
    preset_jacobian_product,
)
from .scalars import recip_factorial

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
    value = rho(g, r, d)
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
# Schur shapes and the generating-function determinant
# ---------------------------------------------------------------------------

Shape = tuple[int, ...]  # a partition, padded with zeros to r+1 parts


def _vertical_strips(shape: Shape, k: int) -> list[Shape]:
    """Partitions obtained from ``shape`` by adding k boxes, no two in one
    row, within the same number of rows (the dual Pieri rule for e_k)."""
    rows = len(shape)
    out: list[Shape] = []

    def extend(i: int, left: int, grown: list[int]) -> None:
        if left == 0:
            out.append(tuple(grown) + shape[i:])
            return
        if rows - i < left:
            return
        extend(i + 1, left, grown + [shape[i]])
        if i == 0 or grown[i - 1] > shape[i]:
            extend(i + 1, left - 1, grown + [shape[i] + 1])

    extend(0, k, [])
    return out


@lru_cache(maxsize=1024)
def _schur_expansion(rows: int, exponents: tuple[int, ...]) -> tuple[tuple[Shape, int], ...]:
    """prod_{k>=2} e_k^{m_k} in Schur functions of ``rows`` variables, with
    ``exponents`` = (m_2, m_3, ...): ((shape, multiplicity), ...).

    e_k = s_(1^k), and each factor adds a vertical strip; shapes with more
    than ``rows`` parts vanish.  Multiplicities are positive integers."""
    shapes = {(0,) * rows: 1}
    for k, mult in enumerate(exponents, start=2):
        for _ in range(mult):
            grown: dict[Shape, int] = {}
            for shape, count in shapes.items():
                for bigger in _vertical_strips(shape, k):
                    grown[bigger] = grown.get(bigger, 0) + count
            shapes = grown
    return tuple(shapes.items())


# (rows, b, shape) -> (order, scale S, det series mod t^(order+1)); bounded
# like ``_schur_expansion``, the oldest entry goes first
_SERIES_MEMO_SIZE = 1024
_series_memo: dict[tuple[int, int, Shape], tuple[int, int, tuple[int, ...]]] = {}


def _shape_series(rows: int, base: int, shape: Shape,
                  order: int) -> tuple[int, int, tuple[int, ...]]:
    """(kept order, S, series) with series = det[ sum_e t^e S/(e! (b + shape_j
    - j + e + l)!) ] modulo t^(kept order + 1), kept order >= ``order``.

    S = o! (b + r + o + shape_0)! at the kept order o makes every entry an
    integer.  Truncation commutes with the determinant, so a series kept at
    order o serves every order up to o; a request above it recomputes and
    replaces the entry."""
    key = (rows, base, shape)
    kept = _series_memo.get(key)
    if kept is not None and kept[0] >= order:
        return kept
    top = base + rows - 1 + order + shape[0]
    fact = [1]
    for i in range(1, top + 1):
        fact.append(fact[-1] * i)
    scale = fact[order] * fact[top]

    def entry(m: int, e: int) -> int:
        return scale // (fact[e] * fact[m]) if m >= 0 else 0

    matrix = [
        [[entry(base + shape[j] - j + l + e, e) for e in range(order + 1)]
         for l in range(rows)]
        for j in range(rows)
    ]
    kept = (order, scale, tuple(series_det(matrix, order)))
    _series_memo.pop(key, None)
    if len(_series_memo) >= _SERIES_MEMO_SIZE:
        del _series_memo[next(iter(_series_memo))]
    _series_memo[key] = kept
    return kept


def _integrate_shapes(ctx: BNContext, weights: dict, den: int) -> Fraction:
    """g!/den * sum of weight * L(p_1^n s_shape) over the keys (n, shape) of
    the integer ``weights``, where L is the Harris-Tu functional
    x^e -> det[1/(b + e_j - j + l)!] and p_1 = x_1 + ... + x_{r+1}.

    The determinant only depends on the row offsets e_j - j, up to the sign
    of sorting them, so L(g s_shape) = L(g x^shape) for every symmetric g.
    The determinant is multilinear in its rows and row j depends on x_j
    alone, so p_1^n = n! [t^n] prod_j exp(t x_j) gives

        L(p_1^n x^shape) = n! [t^n] det[ sum_e t^e/e! * 1/(b + shape_j - j + e + l)! ],

    one determinant of truncated power series in place of a sum over all
    exponent vectors.  Each shape takes one such determinant, at the highest
    order n asked (``_shape_series``), with its entries scaled by one
    integer S, so det(S M) = S^rows det(M): an integer over S^rows per
    shape, summed over the lcm of those denominators into one Fraction.
    """
    rows = ctx.r + 1
    base = ctx.g + ctx.r - ctx.d
    by_shape: dict[Shape, dict[int, int]] = {}
    for (order, shape), weight in weights.items():
        by_shape.setdefault(shape, {})[order] = weight
    parts = []
    for shape, orders in by_shape.items():
        _, scale, series = _shape_series(rows, base, shape, max(orders))
        parts.append((sum(weight * math.factorial(order) * series[order]
                          for order, weight in orders.items()), scale ** rows))
    common = math.lcm(*[q for _, q in parts])
    total = sum(p * (common // q) for p, q in parts)
    return Fraction(total * math.factorial(ctx.g), common * den)


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


@lru_cache(maxsize=16)  # bounded; one derivation serves the locus check and the restriction
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


def _check_integrand(ctx: BNContext, e: RingElem) -> None:
    """Refuse anything but a k-free class homogeneous of degree rho+1.

    A class containing k lives on a degeneracy locus, not on the ambient
    product; a nonzero class of another degree would integrate to a silent 0.
    """
    if e.preset != ctx.preset:
        raise PresetMismatchError("element does not live in the context's preset")
    if "k" in e.generators():
        raise RingDomainError(
            "kernel class k present: integrate bn.restrict_to_locus(ctx, e, source)"
            " instead"
        )
    if not e.is_zero() and (not e.is_homogeneous() or e.degree() != ctx.dim_total):
        raise RingDomainError(
            f"integrand must be homogeneous of degree rho+1 = {ctx.dim_total};"
            f" got degrees {sorted({ctx.preset.monomial_degree(m) for m, _ in e.terms})}"
        )


# ---------------------------------------------------------------------------
# The two evaluators
# ---------------------------------------------------------------------------

def evaluate_taut(ctx: BNContext, e: RingElem) -> Fraction:
    """Evaluate a k-free tautological class of degree rho+1 against
    curve x Brill-Noether locus.

    Monomials containing gamma or missing eta integrate to zero; the
    others are integrated by the generating-function Harris-Tu determinant
    (see the module docstring).
    """
    _check_integrand(ctx, e)
    index = ctx.preset.index
    eta, gamma, c1, k = index("eta"), index("gamma"), index("c1"), index("k")
    weights: dict[tuple[int, Shape], int] = {}
    for mono, n in e.numerators:
        if mono[gamma] or mono[eta] != 1:
            continue
        # c_2..c_{r+1} lie between c_1 and k
        for shape, count in _schur_expansion(ctx.r + 1, mono[c1 + 1:k]):
            key = (mono[c1], shape)
            weights[key] = weights.get(key, 0) + n * count
    return _integrate_shapes(ctx, weights, e.denominator)


@lru_cache(maxsize=16)
def _recursion_images(preset: RingPreset) -> tuple[RingElem, ...]:
    # c_{i+1} = theta^i c_1 / i! - i theta^{i+1} / (i+1)!  for i >= 1
    theta = preset.gen("theta")
    c1 = preset.gen("c1")
    r = preset.param("r")
    return tuple(
        recip_factorial(i) * c1 * theta ** i - i * recip_factorial(i + 1) * theta ** (i + 1)
        for i in range(1, r + 1)
    )


def evaluate_taut_recursion(ctx: BNContext, e: RingElem) -> Fraction:
    """``evaluate_taut`` after rewriting c_2..c_{r+1} in c_1 and theta by
    the h^1 = 1 recursion: one power per image and exponent, and one
    ``weighted_sum`` of the rewritten numerators, whose value is divided by
    the denominator at the end.  Not an independent evaluator: the agreement
    check in ``genus12.side`` covers the rewrite and the Pieri expansion,
    not the ``series_det`` core that both routes share.  Valid only when
    g - d + r = 1 (h^1 = 1 across the locus) and the next Brill-Noether
    locus is empty; other contexts are refused.
    """
    if ctx.g - ctx.d + ctx.r != 1 or rho(ctx.g, ctx.r + 1, ctx.d) >= 0:
        raise PreconditionError(
            "the h^1 = 1 recursion needs g - d + r = 1 and an empty next"
            " Brill-Noether locus"
        )
    _check_integrand(ctx, e)
    preset = ctx.preset
    images = _recursion_images(preset)
    c1, k = preset.index("c1"), preset.index("k")
    groups: dict[tuple[int, ...], dict] = {}
    for mono, n in e.numerators:
        # keep eta, gamma, theta and c_1; c_2..c_{r+1}, between c_1 and k,
        # go through their images, and k is absent
        groups.setdefault(mono[c1 + 1:k], {})[mono[:c1 + 1] + (0,) * (len(mono) - c1 - 1)] = n
    power = cache(lambda i, m: images[i] ** m)
    rewritten = []
    for exponents, kept in groups.items():
        term = preset.element(kept)
        for i, m in enumerate(exponents):
            if m:
                term = term * power(i, m)
        rewritten.append((1, term))
    return evaluate_taut(ctx, preset.weighted_sum(rewritten)) / e.denominator
