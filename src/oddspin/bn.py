"""Top intersection numbers of tautological Chern monomials on the product
of a curve with a Brill-Noether locus inside its Jacobian.

With c_i = e_i(x_1..x_{r+1}) in the Chern roots, a root monomial x^e
integrates (against eta and the matching theta power) to g! times the
Harris-Tu determinant det[1/(b + e_j - j + l)!], b = g - d + r
(``ht_value``).  ``evaluate_taut`` never expands a class into root
monomials.  It integrates c_1^n prod_{k>=2} c_k^{m_k} in two steps:

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

Both evaluators take a k-free class, or a purely k-linear one with a
``side``, that is homogeneous of degree rho+1 on curve x W^r_d; anything
else raises RingDomainError rather than integrating to a silent 0.

The degree-1 kernel class k stands for the first Chern class of the dual
kernel line bundle of the defining bundle morphism of each degeneracy
locus; ``ker_substitute`` eliminates it against the Chern class one degree
past the locus class in the same series (one substitution per side of the
genus-12 pipeline).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    NonSymmetricMonomialWarning,
    PreconditionError,
    PresetMismatchError,
    RingDomainError,
)
from .linalg import RatMatrix, series_det
from .numerics import rho
from .ring import (
    JACOBIAN,
    RingElem,
    RingPreset,
    geometric_series,
    preset_jacobian_product,
)
from .scalars import ZERO, recip_factorial

SIDE_X = "X"
SIDE_Y = "Y"


@dataclass(frozen=True)
class BNContext:
    """Fixed (g, r, d) together with the matching ring preset."""

    g: int
    r: int
    d: int
    preset: RingPreset

    @property
    def rho(self) -> int:
        return rho(self.g, self.r, self.d)

    @property
    def dim_locus(self) -> int:
        return self.rho

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


@dataclass(frozen=True)
class HTQuery:
    """One Chern-root monomial x_1^{i_1}..x_{r+1}^{i_{r+1}} theta^a (eta?)."""

    exponents: tuple[int, ...]
    theta_power: int
    has_eta: bool

    def __post_init__(self):
        if any(e < 0 for e in self.exponents) or self.theta_power < 0:
            raise PreconditionError("query exponents must be nonnegative")


def ht_matrix(ctx: BNContext, exponents: tuple[int, ...]) -> RatMatrix:
    """The (r+1)x(r+1) matrix of reciprocal factorials attached to a
    Chern-root exponent vector; out-of-range entries are 0 by convention."""
    base = ctx.g + ctx.r - ctx.d
    n = ctx.r + 1
    return RatMatrix.from_rows(
        [
            [recip_factorial(base + exponents[j] - j + l) for l in range(n)]
            for j in range(n)
        ]
    )


def ht_value(ctx: BNContext, query: HTQuery, *, _in_symmetric_sum: bool = False) -> Fraction:
    """Intersection number of one Chern-root monomial on the product space.

    Every permutation term of the determinant carries the same total theta
    exponent E = (r+1)(g+r-d) + sum(i_j), so the monomial evaluates to
    det(reciprocal factorials) * g! exactly when eta is present and
    E + a = g (the normalization integrates eta * theta^g to g!).  Queries
    without eta are pulled back from the Brill-Noether locus and pair to
    zero on the product; off-degree queries return 0 by design.
    """
    if len(query.exponents) != ctx.r + 1:
        raise PreconditionError(
            f"expected {ctx.r + 1} Chern-root exponents, got {len(query.exponents)}"
        )
    if not _in_symmetric_sum and len(set(query.exponents)) > 1:
        warnings.warn(
            "bare non-symmetric Chern-root monomial evaluated directly; such"
            " values are only meaningful inside symmetric sums",
            NonSymmetricMonomialWarning,
            stacklevel=2,
        )
    if not query.has_eta:
        return ZERO
    theta_total = (
        (ctx.r + 1) * (ctx.g + ctx.r - ctx.d)
        + sum(query.exponents)
        + query.theta_power
    )
    if theta_total != ctx.g:
        return ZERO
    return ht_matrix(ctx, query.exponents).det() * math.factorial(ctx.g)


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
# Kernel-class substitution
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


def _context_of(preset: RingPreset) -> BNContext:
    if preset.kind != JACOBIAN:
        raise RingDomainError("kernel substitution lives on the jacobian preset")
    return bn_context(preset.param("g"), preset.param("r"), preset.param("d"))


def ker_substitution_class(ctx: BNContext, side: str) -> RingElem:
    """Ambient class standing for k times the degeneracy-locus class.

    Each locus is the first degeneracy locus of a morphism from a rank-2
    bundle to the rank r+1 tautological one.  Resolving it inside the
    projectivized source bundle and pushing down gives, for any class xi,

        (integral over the locus of) c_1(Ker^dual) . xi
            = c_{r+1}(target^dual - source^dual) . xi   on the ambient space,

    one degree past the locus class c_r(target^dual - source^dual) from the
    same Chern series.  The substitution class therefore already carries
    the locus factor: k-linear monomials pair directly against the ambient
    product, with no extra locus multiplication.
    """
    if side == SIDE_X:
        series = jet_bundle_inverse_chern(ctx.preset, ctx.g, ctx.d)
    elif side == SIDE_Y:
        series = point_pair_inverse_chern(ctx.preset, ctx.d)
    else:
        raise PreconditionError(f"unknown side {side!r}; expected 'X' or 'Y'")
    return (total_chern_dual(ctx.preset) * series).homogeneous_part(ctx.r + 1)


def split_kernel_class(e: RingElem) -> tuple[RingElem, RingElem]:
    """Split into (k-free part, k-linear part with k stripped).

    A monomial of k-degree two or more is a hard error: the pipeline's
    integrands are k-linear, so a square signals a caller bug rather than
    an excess-intersection situation this evaluator could silently absorb.
    """
    preset = e.preset
    k_index = preset.index("k")
    free: dict = {}
    linear: dict = {}
    for mono, coeff in e.terms:
        k_exp = mono[k_index]
        if k_exp == 0:
            free[mono] = coeff
        elif k_exp == 1:
            stripped = list(mono)
            stripped[k_index] = 0
            linear[tuple(stripped)] = coeff
        else:
            raise RingDomainError(
                "kernel class appears with exponent >= 2; excess intersection"
                " is outside this evaluator's scope"
            )
    return preset.element(free), preset.element(linear)


def ker_substitute(e: RingElem, side: str) -> RingElem:
    """Replace each k-linear monomial k.xi by its side-specific push-down.

    k-free monomials pass through unchanged.  Mind the grading: the
    substitute of a k-linear monomial is an ambient class that already
    contains the degeneracy-locus factor (see ker_substitution_class), so
    a class restricted to the locus evaluates as

        (k-free part) . [locus]  +  ker_substitute(k-linear part).
    """
    free, linear = split_kernel_class(e)
    if linear.is_zero():
        return e
    ctx = _context_of(e.preset)
    return free + ker_substitution_class(ctx, side) * linear


def evaluate_on_locus(ctx: BNContext, e: RingElem, side: str, locus: RingElem) -> Fraction:
    """Integrate a class restricted to a degeneracy locus.

    The k-free part integrates against the locus class; k-linear monomials
    are pushed down by the kernel-class substitution, which carries the
    locus factor already.
    """
    free, linear = split_kernel_class(e)
    ambient = free * locus + ker_substitution_class(ctx, side) * linear
    return evaluate_taut(ctx, ambient)


def _has_kernel_class(e: RingElem) -> bool:
    k_index = e.preset.index("k")
    return any(mono[k_index] for mono, _ in e.terms)


def _ambient_integrand(ctx: BNContext, e: RingElem, side: str | None) -> RingElem:
    """The k-free ambient class of degree rho+1 that ``e`` stands for.

    A k-linear element is pushed down by the kernel-class substitution,
    which carries the locus factor.  An element mixing k-free and k-linear
    terms is refused: its k-free part would need the locus class too, which
    the caller must supply (see ``evaluate_on_locus``).  A nonzero result
    that is not homogeneous of degree rho+1 is refused rather than read as 0.
    """
    if e.preset != ctx.preset:
        raise PresetMismatchError("element does not live in the context's preset")
    free, linear = split_kernel_class(e)
    if not linear.is_zero():
        if not free.is_zero():
            raise RingDomainError(
                "element mixes k-free and k-linear terms; integrate the k-free"
                " part against the locus class first"
            )
        if side is None:
            raise RingDomainError(
                "kernel class present: pass side='X' or side='Y' for substitution"
            )
        e = ker_substitution_class(ctx, side) * linear
    if not e.is_zero() and (not e.is_homogeneous() or e.degree() != ctx.dim_total):
        raise RingDomainError(
            f"integrand must be homogeneous of degree rho+1 = {ctx.dim_total};"
            f" got degrees {sorted({ctx.preset.monomial_degree(m) for m, _ in e.terms})}"
        )
    return e


# ---------------------------------------------------------------------------
# The two evaluators
# ---------------------------------------------------------------------------

def evaluate_taut(ctx: BNContext, e: RingElem, side: str | None = None) -> Fraction:
    """Evaluate a tautological class against curve x Brill-Noether locus.

    Monomials containing gamma or missing eta integrate to zero; the
    others are integrated by the generating-function Harris-Tu determinant
    (see the module docstring).  If the kernel class is present a ``side``
    is required for its substitution.
    """
    e = _ambient_integrand(ctx, e, side)
    c1_index = ctx.preset.index("c1")
    higher = slice(c1_index + 1, ctx.preset.index("k"))
    weights: dict[tuple[int, Shape], Fraction] = {}
    for mono, coeff in e.terms:
        eta_exp, gamma_exp = mono[0], mono[1]
        if gamma_exp or eta_exp != 1:
            continue
        for shape, count in _schur_expansion(ctx.r + 1, mono[higher]):
            key = (mono[c1_index], shape)
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


def evaluate_taut_recursion(ctx: BNContext, e: RingElem, side: str | None = None) -> Fraction:
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
    e = _ambient_integrand(ctx, e, side)
    preset = ctx.preset
    images = _recursion_images(preset)
    higher = [preset.index(f"c{i}") for i in range(2, ctx.r + 2)]

    rewritten = preset.zero()
    for mono, coeff in e.terms:
        skeleton = list(mono)
        for index in higher:
            skeleton[index] = 0
        term = preset.element({tuple(skeleton): coeff})
        for image, index in zip(images, higher):
            if mono[index]:
                term = term * image ** mono[index]
        rewritten = rewritten + term
    return evaluate_taut(ctx, rewritten)
