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

Rows are scaled to integers and the determinant is fraction-free
(``linalg.series_det``); only the final value is a rational.

``evaluate_taut_recursion`` first eliminates c_2, c_3, ... through the
h^1 = 1 relation c_{i+1} = theta^i c_1 / i! - i theta^{i+1} / (i+1)! and
hands the resulting polynomial in c_1 and theta to ``evaluate_taut``.  The
cross-check stays meaningful although both end in the same determinant:
the rewritten class meets only the p_1 series with unshifted rows, while
the raw integrand also goes through the Pieri expansion of c_2..c_{r+1}
and the shifted rows.  Their agreement on every valid-degree monomial is
the package's main internal safety net.

Both evaluators take only a k-free class homogeneous of degree rho+1 on
curve x W^r_d; anything else raises RingDomainError rather than
integrating to a silent 0.

The degree-1 kernel class k stands for the first Chern class of the dual
kernel line bundle of the defining bundle morphism of a degeneracy locus.
``restrict_to_locus`` is the one place it is consumed: it turns a class on
the locus into a k-free ambient class, multiplying the k-free part by the
locus class and pushing k down to the next class of the same Chern series
(``degeneracy_classes``).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError, PresetMismatchError, RingDomainError
from .linalg import series_det
from .numerics import rho
from .record import Record
from .ring import (
    C1,
    ETA,
    GAMMA,
    JACOBIAN,
    K,
    RingElem,
    RingPreset,
    geometric_series,
    preset_jacobian_product,
)
from .scalars import ZERO, recip_factorial

SIDE_X = "X"
SIDE_Y = "Y"


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


def _integrate_shapes(ctx: BNContext, weights: dict[tuple[int, Shape], Fraction]) -> Fraction:
    """g! * sum of weight * L(p_1^n s_shape) over the keys (n, shape) of
    ``weights``, where L is the Harris-Tu functional
    x^e -> det[1/(b + e_j - j + l)!] and p_1 = x_1 + ... + x_{r+1}.

    The determinant only depends on the row offsets e_j - j, up to the sign
    of sorting them, so L(g s_shape) = L(g x^shape) for every symmetric g.
    The determinant is multilinear in its rows and row j depends on x_j
    alone, so p_1^n = n! [t^n] prod_j exp(t x_j) gives

        L(p_1^n x^shape) = n! [t^n] det[ sum_e t^e/e! * 1/(b + shape_j - j + e + l)! ],

    one determinant of truncated power series in place of a sum over all
    exponent vectors.  Every entry is scaled by one integer, so each
    determinant is a ``series_det`` over int and the scale is divided out
    once at the end.
    """
    rows = ctx.r + 1
    base = ctx.g + ctx.r - ctx.d
    top_order = max((order for order, _ in weights), default=0)
    top = base + ctx.r + max((order + shape[0] for order, shape in weights), default=0)
    fact = [math.factorial(i) for i in range(top + 1)]
    scale = fact[top_order] * fact[top]

    def entry(m: int, e: int) -> int:
        return scale // (fact[e] * fact[m]) if m >= 0 else 0

    total = ZERO
    for (order, shape), weight in weights.items():
        matrix = [
            [[entry(base + shape[j] - j + l + e, e) for e in range(order + 1)]
             for l in range(rows)]
            for j in range(rows)
        ]
        total += weight * (fact[order] * series_det(matrix, order)[order])
    return total * math.factorial(ctx.g) / scale ** rows


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
    Poincare bundle: the product of the geometric series of d*eta + gamma
    and (2g-2+d)*eta + gamma."""
    eta = preset.gen("eta")
    gamma = preset.gen("gamma")
    first = geometric_series(line_degree * eta + gamma)
    second = geometric_series((2 * curve_genus - 2 + line_degree) * eta + gamma)
    return first * second


def point_pair_inverse_chern(preset: RingPreset, line_degree: int) -> RingElem:
    """Inverse total Chern class of the dual rank-2 evaluation bundle at a
    moving point plus a fixed point."""
    eta = preset.gen("eta")
    gamma = preset.gen("gamma")
    return geometric_series(line_degree * eta + gamma) * (preset.one() - eta)


def degeneracy_classes(ctx: BNContext, side: str) -> tuple[RingElem, RingElem]:
    """(locus class, kernel push-down) of the side's degeneracy locus.

    Each locus is the first degeneracy locus of a morphism from a rank-2
    source bundle to the rank r+1 tautological one: the jet bundle on side
    X, the evaluation bundle at a moving plus a fixed point on side Y.  Its
    class is c_r(target^dual - source^dual).  Resolving the locus inside the
    projectivized source bundle and pushing down gives, for any class xi,

        (integral over the locus of) c_1(Ker^dual) . xi
            = c_{r+1}(target^dual - source^dual) . xi   on the ambient space,

    so both classes are graded pieces of one Chern series (Harris-Tu,
    Fulton 14.4), and the push-down already carries the locus factor.
    """
    if side == SIDE_X:
        series = jet_bundle_inverse_chern(ctx.preset, ctx.g, ctx.d)
    elif side == SIDE_Y:
        series = point_pair_inverse_chern(ctx.preset, ctx.d)
    else:
        raise PreconditionError(f"unknown side {side!r}; expected 'X' or 'Y'")
    total = total_chern_dual(ctx.preset) * series
    return total.homogeneous_part(ctx.r), total.homogeneous_part(ctx.r + 1)


def split_kernel_class(e: RingElem) -> tuple[RingElem, RingElem]:
    """Split into (k-free part, k-linear part with k stripped).

    A monomial of k-degree two or more is a hard error: the pipeline's
    integrands are k-linear, so a square signals a caller bug rather than
    an excess-intersection situation this evaluator could silently absorb.
    """
    if e.preset.kind != JACOBIAN:
        raise RingDomainError("the kernel class lives on the jacobian preset")
    free: dict = {}
    linear: dict = {}
    for mono, coeff in e.terms:
        if mono[K] == 0:
            free[mono] = coeff
        elif mono[K] == 1:
            linear[mono[:K] + (0,)] = coeff
        else:
            raise RingDomainError(
                "kernel class appears with exponent >= 2; excess intersection"
                " is outside this evaluator's scope"
            )
    return e.preset.element(free), e.preset.element(linear)


def restrict_to_locus(ctx: BNContext, e: RingElem, side: str) -> RingElem:
    """The k-free ambient class standing for ``e`` restricted to the side's
    degeneracy locus: (k-free part) . [locus] + (k-linear part) . push-down,
    with k stripped from the k-linear part (see ``degeneracy_classes``)."""
    locus, push = degeneracy_classes(ctx, side)
    free, linear = split_kernel_class(e)
    return free * locus + push * linear


def _check_integrand(ctx: BNContext, e: RingElem) -> None:
    """Refuse anything but a k-free class homogeneous of degree rho+1.

    A class containing k lives on a degeneracy locus, not on the ambient
    product; a nonzero class of another degree would integrate to a silent 0.
    """
    if e.preset != ctx.preset:
        raise PresetMismatchError("element does not live in the context's preset")
    if any(mono[K] for mono, _ in e.terms):
        raise RingDomainError(
            "kernel class k present: integrate bn.restrict_to_locus(ctx, e, side)"
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
    weights: dict[tuple[int, Shape], Fraction] = {}
    for mono, coeff in e.terms:
        if mono[GAMMA] or mono[ETA] != 1:
            continue
        for shape, count in _schur_expansion(ctx.r + 1, mono[C1 + 1:K]):
            key = (mono[C1], shape)
            weights[key] = weights.get(key, ZERO) + coeff * count
    return _integrate_shapes(ctx, weights)


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
    """Independent evaluator through the h^1 = 1 Chern-class recursion.

    Rewrites c_2, c_3, ... in c_1 and theta, then evaluates the result with
    ``evaluate_taut``.  Valid only when the line bundles have h^1 = 1
    across the whole locus, i.e. g - d + r = 1 and the next Brill-Noether
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
    rewritten = preset.zero()
    for mono, coeff in e.terms:
        # keep eta, gamma, theta and c_1; c_2..c_{r+1} go through their images
        term = preset.element({mono[:C1 + 1] + (0,) * (ctx.r + 1): coeff})
        for image, power in zip(images, mono[C1 + 1:K]):
            if power:
                term = term * image ** power
        rewritten = rewritten + term
    return evaluate_taut(ctx, rewritten)
