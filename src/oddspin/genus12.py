"""The genus-12 pipeline: Chern classes of the multiplication-map bundles,
the classes of the two degeneracy 3-folds, the two big degree-7 integrands,
and the resulting divisor class whose slope 4415/642 lies under the
slope-conjecture threshold 6 + 12/13.

All intersection numbers are computed on the product of a genus-11 curve
with the 6-dimensional Brill-Noether locus of degree-14 line bundles with
five sections, i.e. in the context (g, r, d) = (11, 4, 14).  The boundary
coefficients of the resulting genus-12 divisor come from the pairing table
of the moduli test curves C0, C1 and R; this module never hardcodes those
degrees.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .bn import (
    SIDE_X,
    SIDE_Y,
    bn_context,
    degeneracy_classes,
    evaluate_taut,
    evaluate_taut_recursion,
    jet_bundle_inverse_chern,
    restrict_to_locus,
    split_kernel_class,
)
from .errors import InternalCheckError, PreconditionError
from .picard import DivisorClass, moduli_basis, test_curve
from .record import Record
from .ring import RingElem
from .scalars import format_scalar

CURVE_GENUS = 11
BUNDLE_RANK_INDEX = 4   # rank r+1 = 5 tautological bundle
LINE_DEGREE = 14
TARGET_GENUS = 12


@lru_cache(maxsize=None)
def context():
    return bn_context(CURVE_GENUS, BUNDLE_RANK_INDEX, LINE_DEGREE)


def _gens():
    preset = context().preset
    return preset.gen("eta"), preset.gen("gamma"), preset.gen("theta"), preset.gen("k")


def _c(i: int) -> RingElem:
    return context().preset.gen(f"c{i}")


class BundleChern(Record):
    """First three Chern classes of a named bundle, as ring elements."""

    __slots__ = ("name", "c1", "c2", "c3")


class SlopeReport(Record):
    __slots__ = ("a", "b0", "b1", "slope", "threshold", "violates_slope_conjecture",
                 "cross_lhs", "cross_rhs", "higher_boundary_note")


def jet_inverse_chern(g_curve: int, d: int) -> RingElem:
    """Inverse total Chern class of the dual first-jet bundle of a degree-d
    line bundle on a genus g_curve curve, as a terminating series in eta
    and gamma.  At (11, 14) this is 1 + 48*eta + 2*gamma - 6*eta*theta."""
    if g_curve < 1 or d < 0:
        raise PreconditionError("jet Chern series needs g_curve >= 1 and d >= 0")
    return jet_bundle_inverse_chern(context().preset, g_curve, d)


def _recorded_locus(side: str) -> RingElem:
    # recorded degree-4 locus classes, checked against their re-derivation
    eta, gamma, theta, _ = _gens()
    if side == SIDE_X:
        return _c(4) - 6 * eta * theta * _c(2) + (48 * eta + 2 * gamma) * _c(3)
    return _c(4) - 2 * eta * theta * _c(2) + (13 * eta + gamma) * _c(3)


@lru_cache(maxsize=None)
def class_locus(side: str) -> RingElem:
    """Degree-4 class of the degeneracy 3-fold on each side.

    Side X is the locus of pencils with a double base-like point at a
    moving point; side Y replaces the double point by a moving point plus
    a fixed one.  The recorded form is hard-checked against the locus class
    that ``bn.degeneracy_classes`` re-derives from the jet-bundle (X) or
    evaluation-bundle (Y) Chern series.
    """
    derived, _ = degeneracy_classes(context(), side)
    recorded = _recorded_locus(side)
    if derived != recorded:
        raise InternalCheckError(
            f"re-derived class of the side-{side} locus disagrees with the"
            " recorded degree-4 form"
        )
    return recorded


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


@lru_cache(maxsize=None)
def bundle_chern(name: str) -> BundleChern:
    """Chern classes of the twisted multiplication-target bundles.

    A2 has fibers the squares vanishing doubly at the moving point, B2
    those vanishing at the moving point and at the fixed one.  These six
    classes are trusted inputs of the pipeline (a routine
    Grothendieck-Riemann-Roch computation); the pipeline's agreement with
    three independently known intersection numbers validates them.
    """
    eta, gamma, theta, _ = _gens()
    if name == "A2":
        return BundleChern(
            "A2",
            -4 * theta - 4 * gamma - 76 * eta,
            8 * theta ** 2 + 280 * eta * theta + 16 * gamma * theta,
            -Fraction(32, 3) * theta ** 3 - 512 * eta * theta ** 2
            - 32 * theta ** 2 * gamma,
        )
    if name == "B2":
        return BundleChern(
            "B2",
            -4 * theta - 2 * gamma - 27 * eta,
            8 * theta ** 2 + 100 * eta * theta + 8 * theta * gamma,
            -Fraction(32, 3) * theta ** 3 - 184 * eta * theta ** 2
            - 16 * theta ** 2 * gamma,
        )
    raise PreconditionError(f"unknown bundle {name!r}; expected 'A2' or 'B2'")


def _kfree_reference(side: str) -> RingElem:
    # recorded degree-3 (codimension) polynomials, pinned coefficient by
    # coefficient as an independent cross-check of the assembly
    eta, gamma, theta, _ = _gens()
    c1, c2, c3 = _c(1), _c(2), _c(3)
    if side == SIDE_X:
        return (
            28 * c2 * theta
            - 88 * c1 * c1 * theta
            + 440 * eta * c1 * c1
            - 53 * c1 * c2
            - Fraction(32, 3) * theta ** 3
            + 128 * eta * theta ** 2
            - 432 * eta * theta * c1
            + 64 * c1 ** 3
            - 140 * eta * c2
            + 48 * theta ** 2 * c1
            + 9 * c3
        )
    return (
        28 * c2 * theta
        - 88 * c1 * c1 * theta
        - 22 * eta * c1 * c1
        - 53 * c1 * c2
        - Fraction(32, 3) * theta ** 3
        - 8 * eta * theta ** 2
        + 24 * eta * theta * c1
        + 64 * c1 ** 3
        + 7 * eta * c2
        + 48 * theta ** 2 * c1
        + 9 * c3
    )


@lru_cache(maxsize=None)
def c3_difference(side: str) -> RingElem:
    """Degree-3 integrand c_3(F - Sym^2 E) restricted to one locus.

    F is the multiplication-target bundle (A2 or B2 extended by the square
    of the quotient line bundle, whose first Chern class is
    2*gamma + 48*eta - k on side X and 13*eta + gamma - k on side Y);
    E is the restricted tautological bundle, so Sym^2 E has the classes of
    ``sym2_chern`` with c_i(E) = (-1)^i c_i.  The k-free part is
    hard-checked against the recorded polynomial for each side.
    """
    eta, gamma, theta, k = _gens()
    if side == SIDE_X:
        bundle = bundle_chern("A2")
        quotient_c1 = 2 * gamma + 48 * eta - k
    elif side == SIDE_Y:
        bundle = bundle_chern("B2")
        quotient_c1 = 13 * eta + gamma - k
    else:
        raise PreconditionError(f"unknown side {side!r}; expected 'X' or 'Y'")

    f1 = bundle.c1 + 2 * quotient_c1
    f2 = bundle.c2 + 2 * bundle.c1 * quotient_c1
    f3 = bundle.c3 + 2 * bundle.c2 * quotient_c1

    taut = BundleChern("E", -_c(1), _c(2), -_c(3))
    sym = sym2_chern(taut, BUNDLE_RANK_INDEX)
    s1, s2, s3 = sym.c1, sym.c2, sym.c3

    diff = (
        f3
        - s3
        - f1 * s2
        + 2 * s1 * s2
        - s1 * f2
        + s1 * s1 * f1
        - s1 ** 3
    )
    kfree, _ = split_kernel_class(diff)
    if kfree != _kfree_reference(side):
        raise InternalCheckError(
            f"k-free part of the side-{side} integrand disagrees with the"
            " recorded polynomial"
        )
    return diff


@lru_cache(maxsize=None)
def ambient_integrand(side: str) -> RingElem:
    """Degree-7 ambient integrand of one side: the restricted degree-3 class
    pushed to the ambient product by ``bn.restrict_to_locus``, once the
    recorded locus class has passed its check."""
    class_locus(side)
    return restrict_to_locus(context(), c3_difference(side), side)


@lru_cache(maxsize=None)
def _side_total(side: str) -> Fraction:
    ctx = context()
    integrand = ambient_integrand(side)
    value = evaluate_taut(ctx, integrand)
    check = evaluate_taut_recursion(ctx, integrand)
    if value != check:
        raise InternalCheckError(
            f"the two evaluators disagree on the side-{side} integrand:"
            f" {format_scalar(value)} vs {format_scalar(check)}"
        )
    return value


@lru_cache(maxsize=None)
def d12_coefficients() -> tuple[Fraction, Fraction, Fraction]:
    """(a, b0, b1) of the genus-12 divisor a*lambda - b0*delta_0 - b1*delta_1 - ...

    b1 comes from the side-X total paired against the elliptic-tail curve
    C1, b0 from the side-Y total against the irreducible-node curve C0,
    and a from the plane-cubic pencil R, which meets the divisor in zero.
    """
    c1_curve = test_curve("C1", TARGET_GENUS)
    c0_curve = test_curve("C0", TARGET_GENUS)
    r_curve = test_curve("R", TARGET_GENUS)

    total_x = _side_total(SIDE_X)
    b1 = total_x / (-c1_curve.pairing("delta1"))

    total_y = _side_total(SIDE_Y)
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


def d12_class() -> DivisorClass:
    return d12_class_info().divisor


def d12_slope_report() -> SlopeReport:
    """Slope a / b0 against the threshold 6 + 12/(g+1), decided exactly."""
    a, b0, b1 = d12_coefficients()
    if b0 == 0:
        raise InternalCheckError("vanishing delta_0 coefficient; slope undefined")
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
    kfree_x, kcoeff_x = split_kernel_class(c3_difference(SIDE_X))
    kfree_y, kcoeff_y = split_kernel_class(c3_difference(SIDE_Y))
    return {
        "jet_inverse": jet_inverse_chern(CURVE_GENUS, LINE_DEGREE).render(),
        "class_x": class_locus(SIDE_X).render(),
        "class_y": class_locus(SIDE_Y).render(),
        "c3diff_x_kfree": kfree_x.render(),
        "c3diff_y_kfree": kfree_y.render(),
        "kcoeff_x": kcoeff_x.render(),
        "kcoeff_y": kcoeff_y.render(),
        "total_x": format_scalar(_side_total(SIDE_X)),
        "total_y": format_scalar(_side_total(SIDE_Y)),
    }
