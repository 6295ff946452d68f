"""The genus-12 pipeline: Chern classes of the multiplication-map bundles,
the classes of the two degeneracy 3-folds, the two big degree-7 integrands,
and the resulting divisor class whose slope 4415/642 lies under the
slope-conjecture threshold 6 + 12/13.

All intersection numbers are computed on the product of a genus-11 curve
with the 6-dimensional Brill-Noether locus of degree-14 line bundles with
five sections, i.e. in the context (g, r, d) = (11, 4, 14).  Each 3-fold is
the degeneracy locus of a rank-2 source bundle mapping to the tautological
bundle.  ``_recorded`` is the one place that tells the two sides apart: it
holds each side's trusted inputs.  ``side`` derives that side's classes
from them through ``bn`` and checks that its evaluators agree.  The boundary
coefficients of the resulting genus-12 divisor come from the pairing table
of the moduli test curves C0, C1 and R; this module never hardcodes those
degrees.
"""
from __future__ import annotations

from fractions import Fraction

from .bn import (
    bn_context,
    degeneracy_classes,
    evaluate_taut,
    evaluate_taut_recursion,
    jet_bundle_inverse_chern,
    point_pair_inverse_chern,
    restrict_to_locus,
    split_kernel_class,
)
from .errors import InternalCheckError, PreconditionError
from .picard import DivisorClass, moduli_basis, test_curve
from .record import Record, memo
from .ring import RingElem
from .scalars import format_scalar

CURVE_GENUS = 11
BUNDLE_RANK_INDEX = 4   # rank r+1 = 5 tautological bundle
LINE_DEGREE = 14
TARGET_GENUS = 12
SIDE_X = "X"
SIDE_Y = "Y"


@memo
def context():
    return bn_context(CURVE_GENUS, BUNDLE_RANK_INDEX, LINE_DEGREE)


class BundleChern(Record):
    """First three Chern classes of a named bundle, as ring elements."""

    __slots__ = ("name", "c1", "c2", "c3")


class SlopeReport(Record):
    __slots__ = ("a", "b0", "b1", "slope", "threshold", "violates_slope_conjecture",
                 "cross_lhs", "cross_rhs", "higher_boundary_note")


class Side(Record):
    """One checked side of the pipeline.

    ``source`` is the inverse total Chern series of the rank-2 source
    bundle, ``bundle`` the multiplication-target bundle (A2 or B2) and
    ``quotient_c1`` the first Chern class of the quotient line bundle.
    ``locus`` is the degree-4 class of the degeneracy 3-fold,
    ``integrand`` the k-linear degree-3 class c_3(F - Sym^2 E) on it, and
    ``total`` the integral of that class over the 3-fold.
    """

    __slots__ = ("source", "bundle", "quotient_c1", "locus", "integrand", "total")


def sym2_chern(v: BundleChern, r: int) -> BundleChern:
    """Chern classes of the symmetric square of a rank r+1 bundle."""
    c1, c2, c3 = v.c1, v.c2, v.c3
    s1 = (r + 2) * c1
    s2 = Fraction(r * (r + 3), 2) * c1 * c1 + (r + 3) * c2
    s3 = (
        Fraction(r * (r + 4) * (r - 1), 6) * c1 ** 3
        + (r + 5) * c3
        + (r * r + 4 * r - 1) * c1 * c2
    )
    return BundleChern(f"Sym2({v.name})", s1, s2, s3)


def _recorded(name: str) -> tuple[RingElem, BundleChern, RingElem]:
    """(source series, target bundle, quotient class) recorded for one side.

    Side X is the locus of pencils with a double base-like point at a
    moving point: its source is the dual jet bundle, and A2 has fibers the
    squares vanishing doubly at the moving point.  Side Y replaces the
    double point by a moving point plus a fixed one: its source is the
    evaluation bundle there, and B2 has fibers the squares vanishing at
    both points.  The six bundle classes are trusted inputs (a routine
    Grothendieck-Riemann-Roch computation); the pipeline's agreement with
    three independently known intersection numbers validates them.
    """
    preset = context().preset
    eta, gamma, theta, k = (preset.gen(n) for n in ("eta", "gamma", "theta", "k"))
    if name == SIDE_X:
        return (
            jet_bundle_inverse_chern(preset, CURVE_GENUS, LINE_DEGREE),
            BundleChern(
                "A2",
                -4 * theta - 4 * gamma - 76 * eta,
                8 * theta ** 2 + 280 * eta * theta + 16 * gamma * theta,
                -Fraction(32, 3) * theta ** 3 - 512 * eta * theta ** 2
                - 32 * theta ** 2 * gamma,
            ),
            2 * gamma + 48 * eta - k,
        )
    if name == SIDE_Y:
        return (
            point_pair_inverse_chern(preset, LINE_DEGREE),
            BundleChern(
                "B2",
                -4 * theta - 2 * gamma - 27 * eta,
                8 * theta ** 2 + 100 * eta * theta + 8 * theta * gamma,
                -Fraction(32, 3) * theta ** 3 - 184 * eta * theta ** 2
                - 16 * theta ** 2 * gamma,
            ),
            13 * eta + gamma - k,
        )
    raise PreconditionError(f"unknown side {name!r}; expected 'X' or 'Y'")


@memo
def side(name: str) -> Side:
    """One side of the pipeline, once its evaluators agree.

    The locus class comes from ``bn.degeneracy_classes``.  The integrand
    is c_3(F - Sym^2 E): F is the target bundle extended by the square of
    the quotient line bundle; E is the restricted tautological bundle, so
    Sym^2 E has the classes of ``sym2_chern`` with c_i(E) = (-1)^i c_i.
    The one hard check: the two evaluators agree on the degree-7 ambient
    class that ``bn.restrict_to_locus`` makes of the integrand.
    """
    ctx = context()
    source, bundle, quotient_c1 = _recorded(name)
    locus = degeneracy_classes(ctx, source)[0]

    f1 = bundle.c1 + 2 * quotient_c1
    f2 = bundle.c2 + 2 * bundle.c1 * quotient_c1
    f3 = bundle.c3 + 2 * bundle.c2 * quotient_c1
    c1, c2, c3 = (ctx.preset.gen(f"c{i}") for i in range(1, 4))
    sym = sym2_chern(BundleChern("E", -c1, c2, -c3), BUNDLE_RANK_INDEX)
    s1, s2, s3 = sym.c1, sym.c2, sym.c3
    integrand = f3 - s3 - f1 * s2 + 2 * s1 * s2 - s1 * f2 + s1 * s1 * f1 - s1 ** 3

    ambient = restrict_to_locus(ctx, integrand, source)
    total = evaluate_taut(ctx, ambient)
    check = evaluate_taut_recursion(ctx, ambient)
    if total != check:
        raise InternalCheckError(
            f"the two evaluators disagree on the side-{name} integrand:"
            f" {format_scalar(total)} vs {format_scalar(check)}"
        )
    return Side(source, bundle, quotient_c1, locus, integrand, total)


@memo
def d12_coefficients() -> tuple[Fraction, Fraction, Fraction]:
    """(a, b0, b1) of the genus-12 divisor a*lambda - b0*delta_0 - b1*delta_1 - ...

    b1 comes from the side-X total paired against the elliptic-tail curve
    C1, b0 from the side-Y total against the irreducible-node curve C0,
    and a from the plane-cubic pencil R, which meets the divisor in zero.
    """
    c1_curve = test_curve("C1", TARGET_GENUS)
    c0_curve = test_curve("C0", TARGET_GENUS)
    r_curve = test_curve("R", TARGET_GENUS)

    total_x = side(SIDE_X).total
    b1 = total_x / (-c1_curve.pairing("delta1"))

    total_y = side(SIDE_Y).total
    b0 = (total_y + b1 * c0_curve.pairing("delta1")) / (-c0_curve.pairing("delta0"))

    # R pairs to zero: a*R.lambda - b0*R.delta0 - b1*R.delta1 = 0
    a = (b0 * r_curve.pairing("delta0") + b1 * r_curve.pairing("delta1")) / (
        r_curve.pairing("lambda")
    )

    for label, value in (("b0", b0), ("b1", b1)):
        if value.denominator != 1 or value <= 0:
            raise InternalCheckError(
                f"pipeline fault: {label} = {format_scalar(value)} is not a"
                " positive integer"
            )
    if a - 12 * b0 + b1 != 0:
        raise InternalCheckError("elliptic-pencil relation a - 12*b0 + b1 = 0 fails")
    return a, b0, b1


class D12ClassInfo(Record):
    __slots__ = ("divisor", "assumptions", "assumed_zero_pairings")


def d12_class_info() -> D12ClassInfo:
    """The genus-12 divisor on the moduli basis.

    Coefficients b_j for j >= 2 are only bounded below by b_1; the class
    object fills them with b_1, the conservative end of that bound (larger
    values only help every consumer), and the assumption is flagged.
    """
    a, b0, b1 = d12_coefficients()
    out = {"lambda": a, "delta0": -b0, "delta1": -b1}
    for j in range(2, TARGET_GENUS // 2 + 1):
        out[f"delta{j}"] = -b1
    divisor = DivisorClass.from_mapping(moduli_basis(TARGET_GENUS), out)
    assumed = []
    for curve_name in ("C0", "C1", "R"):
        assumed.extend(test_curve(curve_name, TARGET_GENUS).assumed_zero_labels())
    return D12ClassInfo(
        divisor=divisor,
        assumptions=(
            "delta_j coefficients for j >= 2 use the conservative bound"
            f" b_j = b_1 = {format_scalar(b1)}",
        ),
        assumed_zero_pairings=tuple(assumed),
    )


def d12_slope_report() -> SlopeReport:
    """Slope a / b0 against the threshold 6 + 12/(g+1), decided exactly."""
    a, b0, b1 = d12_coefficients()
    slope_value = a / b0
    threshold = 6 + Fraction(12, TARGET_GENUS + 1)
    lhs = slope_value.numerator * threshold.denominator
    rhs = threshold.numerator * slope_value.denominator
    return SlopeReport(
        a=a,
        b0=b0,
        b1=b1,
        slope=slope_value,
        threshold=threshold,
        violates_slope_conjecture=lhs < rhs,
        cross_lhs=lhs,
        cross_rhs=rhs,
        higher_boundary_note=f"b_j >= b_1 = {format_scalar(b1)} for j >= 2",
    )


def intermediates() -> dict[str, str]:
    """Rendered intermediate classes of the pipeline, for reports."""
    x, y = side(SIDE_X), side(SIDE_Y)
    kfree_x, kcoeff_x = split_kernel_class(x.integrand)
    kfree_y, kcoeff_y = split_kernel_class(y.integrand)
    return {
        "jet_inverse": x.source.render(),
        "class_x": x.locus.render(),
        "class_y": y.locus.render(),
        "c3diff_x_kfree": kfree_x.render(),
        "c3diff_y_kfree": kfree_y.render(),
        "kcoeff_x": kcoeff_x.render(),
        "kcoeff_y": kcoeff_y.render(),
        "total_x": format_scalar(x.total),
        "total_y": format_scalar(y.total),
    }
