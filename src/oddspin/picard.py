"""Exact divisor-class arithmetic on the Picard groups of the odd spin
moduli space and of the moduli of stable curves.

Bases.  The spin space uses generators lambda, alpha_0..alpha_{g//2},
beta_0..beta_{g//2} (alpha/beta distinguish the two spin boundary
components over each boundary divisor of the curve moduli space); the
curve moduli space uses lambda, delta_0..delta_{g//2}.

Sign convention.  A DivisorClass stores raw signed coefficients, and the
solvers work in them: a test-curve row is the curve's stored pairings, and
a target such as the canonical class enters with its own coefficients.  The
paper writes boundary coefficients with a minus sign in front
(a*lambda - sum b_i * boundary_i); ``bar`` reads a result in that notation
by negating boundary entries, and nothing else negates.

Representation.  A class holds one integer numerator per generator over
one denominator, in the form of ``scalars``, so class arithmetic, pullback,
pushforward and rendering work on ints; a ``Fraction`` is built only where
a value leaves a class (``coefficient``, ``coefficients``) and for the
value ``pair`` returns.  A test curve holds only its nonzero pairings, as
(basis index, int) pairs, and each named curve is one ``TEST_CURVES`` entry.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import (
    BasisMismatchError,
    InternalCheckError,
    PreconditionError,
    UndefinedSlopeError,
)
from .linalg import solve_linear, solve_over_lcm
from .numerics import boundary_degrees, theta_counts
from .record import Record, memo, set_field
from .ring import integrate, preset_universal_curve
from .scalars import (
    ZERO, format_ratio, format_scalar, over_lcm, ratio, render_terms, require_int,
)

SPIN = "spin"
MODULI = "moduli"


class PicBasis(Record):
    __slots__ = ("space", "g", "names", "_positions")

    def __init__(self, space: str, g: int, names: tuple[str, ...]):
        super().__init__(space, g, names)
        set_field(self, "_positions", {name: i for i, name in enumerate(names)})

    @property
    def label(self) -> str:
        return f"{self.space}(g={self.g})"

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise BasisMismatchError(f"no generator {name!r} in basis {self.label}")

    def entries(self, mapping: Mapping[str, object]) -> tuple[tuple[tuple[int, int], ...], int]:
        """Int or Fraction coefficients by generator name as (basis index,
        numerator) pairs over one denominator (``scalars.over_lcm``): the
        nonzero numerators only, in basis order.  Every name is looked up,
        zero-valued ones too; an all-int mapping skips ``over_lcm``."""
        values, den = mapping.values(), 1
        if not {int}.issuperset(map(type, values)):
            values, den = over_lcm(values)
        pairs = []
        for name, value in zip(mapping, values):
            j = self.index(name)
            if value:
                pairs.append((j, value))
        pairs.sort()
        return tuple(pairs), den


@memo
def spin_basis(g: int) -> PicBasis:
    require_int("g", g)
    if g < 3:
        raise PreconditionError("spin Picard basis needs g >= 3")
    m = g // 2
    names = ("lambda",) + tuple(f"alpha{i}" for i in range(m + 1)) + tuple(
        f"beta{i}" for i in range(m + 1)
    )
    return PicBasis(SPIN, g, names)


@memo
def moduli_basis(g: int) -> PicBasis:
    require_int("g", g)
    if g < 3:
        raise PreconditionError("moduli Picard basis needs g >= 3")
    names = ("lambda",) + tuple(f"delta{i}" for i in range(g // 2 + 1))
    return PicBasis(MODULI, g, names)


class DivisorClass(Record):
    """A divisor class: ``numerators`` (one int per generator of ``basis``)
    over the positive int ``denominator``.

    The form is the canonical one of ``scalars``, so equal classes are
    equal records with equal hashes; ``reduced`` builds it from any
    numerators and positive denominator, and ``weighted_sum`` is the one
    accumulation that ``+``, ``-``, scalar ``*`` and ``combine`` call.
    """

    __slots__ = ("basis", "numerators", "denominator")

    def __init__(self, basis: PicBasis, numerators: tuple[int, ...], denominator: int):
        set_field(self, "basis", basis)
        set_field(self, "numerators", numerators)
        set_field(self, "denominator", denominator)

    @staticmethod
    def reduced(basis: PicBasis, numerators, denominator: int) -> "DivisorClass":
        """The class sum(numerators[j] * generator_j) / denominator, with the
        content divided out (skipped when the denominator is 1)."""
        if denominator != 1:
            content = math.gcd(denominator, *numerators)
            if content != 1:
                denominator //= content
                numerators = [n // content for n in numerators]
        return DivisorClass(basis, tuple(numerators), denominator)

    @staticmethod
    def from_mapping(basis: PicBasis, mapping: Mapping[str, object]) -> "DivisorClass":
        entries, den = basis.entries(mapping)
        numerators = [0] * len(basis.names)
        for j, p in entries:
            numerators[j] = p
        return DivisorClass(basis, tuple(numerators), den)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, in basis order."""
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    def coefficient(self, name: str) -> Fraction:
        return Fraction(self.numerators[self.basis.index(name)], self.denominator)

    def bar(self, name: str) -> Fraction:
        """Coefficient in the a*lambda - sum b*boundary convention."""
        raw = self.coefficient(name)
        return raw if name == "lambda" else -raw

    def is_zero(self) -> bool:
        return not any(self.numerators)

    @staticmethod
    def weighted_sum(basis: PicBasis,
                     pairs: Iterable[tuple[int | Fraction, "DivisorClass"]]) -> "DivisorClass":
        """The sum of ``weight * cls`` over one or more (int or Fraction
        weight, class) pairs on ``basis``, accumulated in one list of
        integers over the product of the weights' and the classes' common
        denominators, then reduced."""
        weights, classes = zip(*pairs)
        for cls in classes:
            if cls.basis != basis:
                raise BasisMismatchError(
                    f"classes live in different bases: {basis.label} vs {cls.basis.label}"
                )
        weights, weight_den = over_lcm(weights)
        den = math.lcm(*[cls.denominator for cls in classes])
        acc = [0] * len(basis.names)
        for weight, cls in zip(weights, classes):
            if weight:
                scale = weight * (den // cls.denominator)
                acc = [a + scale * n for a, n in zip(acc, cls.numerators)]
        return DivisorClass.reduced(basis, acc, weight_den * den)

    def __add__(self, other: "DivisorClass", sign: int = 1) -> "DivisorClass":
        """self + sign * other, for a class ``other``."""
        if isinstance(other, DivisorClass):
            return DivisorClass.weighted_sum(self.basis, ((1, self), (sign, other)))
        return NotImplemented

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self.__add__(other, -1)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis, tuple(-n for n in self.numerators), self.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DivisorClass.weighted_sum(self.basis, ((other, self),))
        return NotImplemented

    __rmul__ = __mul__

    def render(self) -> str:
        pairs = [(name, n) for name, n in zip(self.basis.names, self.numerators) if n]
        return render_terms(pairs, self.denominator)

    def __str__(self) -> str:
        return self.render()

    def coefficients_by_name(self) -> dict[str, str]:
        den = self.denominator
        return {name: format_ratio(n, den) for name, n in zip(self.basis.names, self.numerators)}


class TestCurve(Record):
    """A one-parameter family paired against every Picard generator.

    ``pairings`` holds the nonzero pairings only, as (basis index, int)
    pairs in basis order; a generator absent from it pairs to 0.
    ``assumed_zero`` lists the generators whose zero pairing is assumed,
    not recorded; reports propagate these flags.
    """

    __slots__ = ("name", "basis", "pairings", "assumed_zero")

    def pairing(self, name: str) -> int:
        return dict(self.pairings).get(self.basis.index(name), 0)

    def assumed_zero_labels(self) -> tuple[str, ...]:
        return tuple(f"{self.name}:{gen}" for gen in self.assumed_zero)


def pair(t: TestCurve, c: DivisorClass) -> Fraction:
    """Exact intersection pairing (dot product over the common basis)."""
    if t.basis != c.basis:
        raise BasisMismatchError(
            f"curve on {t.basis.label} cannot pair with class on {c.basis.label}"
        )
    return Fraction(sum(p * c.numerators[j] for j, p in t.pairings), c.denominator)


# ---------------------------------------------------------------------------
# Pullback / pushforward under the spin covering
# ---------------------------------------------------------------------------

def covering_degree(g: int) -> int:
    """Degree of the odd spin covering of the curve moduli space."""
    return theta_counts(g).n_odd


def pullback(g: int, c: DivisorClass) -> DivisorClass:
    """lambda -> lambda, delta_0 -> alpha_0 + 2*beta_0, delta_i -> alpha_i + beta_i."""
    if c.basis != moduli_basis(g):
        raise BasisMismatchError("pullback expects a class on the moduli basis")
    # numerators in basis order: lambda, delta_0..delta_m -> lambda,
    # alpha_0..alpha_m, beta_0..beta_m; every old numerator survives, so the
    # content stays 1
    lam, *delta = c.numerators
    beta = [2 * delta[0], *delta[1:]]
    return DivisorClass(spin_basis(g), (lam, *delta, *beta), c.denominator)


def pushforward(g: int, c: DivisorClass) -> DivisorClass:
    """Push a spin class down to the moduli basis using covering degrees."""
    if c.basis != spin_basis(g):
        raise BasisMismatchError("pushforward expects a class on the spin basis")
    # numerators in basis order: lambda, alpha_0..alpha_m, beta_0..beta_m
    count = g // 2 + 1
    lam, alpha, beta = c.numerators[0], c.numerators[1:count + 1], c.numerators[count + 1:]
    out = [covering_degree(g) * lam]
    for i in range(count):
        deg_a, deg_b = boundary_degrees(g, i)
        out.append(deg_a * alpha[i] + deg_b * beta[i])
    return DivisorClass.reduced(moduli_basis(g), out, c.denominator)


# ---------------------------------------------------------------------------
# Named divisor classes
# ---------------------------------------------------------------------------

@memo
def canonical_class(space: str, g: int) -> DivisorClass:
    """Canonical class of the chosen moduli space.

    The spin canonical class equals the pullback of the moduli one plus
    beta_0 (the covering is simply branched there); this identity is
    asserted when the class is built, once per genus.
    """
    require_int("g", g)
    if g < 3:
        raise PreconditionError("canonical classes need g >= 3")
    if space == MODULI:
        out = {"lambda": 13, "delta0": -2, "delta1": -3}
        for i in range(2, g // 2 + 1):
            out[f"delta{i}"] = -2
        return DivisorClass.from_mapping(moduli_basis(g), out)
    if space == SPIN:
        out = {"lambda": 13, "alpha0": -2, "beta0": -3, "alpha1": -3, "beta1": -3}
        for i in range(2, g // 2 + 1):
            out[f"alpha{i}"] = -2
            out[f"beta{i}"] = -2
        spin_k = DivisorClass.from_mapping(spin_basis(g), out)
        branch = DivisorClass.from_mapping(spin_basis(g), {"beta0": 1})
        if spin_k != pullback(g, canonical_class(MODULI, g)) + branch:
            raise InternalCheckError(
                "spin canonical class disagrees with pullback(K) + beta_0"
            )
        return spin_k
    raise PreconditionError(f"unknown space {space!r}; expected 'spin' or 'moduli'")


def degenerate_theta_lambda_coefficient(g: int) -> Fraction:
    """Hodge coefficient of the non-reduced theta-characteristic divisor.

    Computed by the degeneracy-locus (Porteous) recipe on the universal
    spin curve: push down (3/4) omega^2 - 2 omega . c1(spin push-forward),
    where the determinant identity of the spin bundle gives
    c1 = -lambda/4; ``integrate`` on the universal-curve preset is that
    push-down.  Closed form: g + 8.
    """
    preset = preset_universal_curve(g)
    omega = preset.gen("omega")
    lam = preset.gen("lambda")
    integrand = Fraction(3, 4) * omega * omega - 2 * omega * (Fraction(-1, 4) * lam)
    return integrate(integrand)


@memo
def zg_class(g: int) -> DivisorClass:
    """Class of the divisor of odd spin curves with non-reduced support:
    (g+8) lambda - (g+2)/4 alpha_0 - 2 beta_0 - sum 2(g-i) alpha_i - sum 2i beta_i.
    """
    require_int("g", g)
    if g < 3:
        raise PreconditionError("the degenerate-theta divisor class needs g >= 3")
    out = {
        "lambda": g + 8,
        "alpha0": -Fraction(g + 2, 4),
        "beta0": -2,
    }
    for i in range(1, g // 2 + 1):
        out[f"alpha{i}"] = -2 * (g - i)
        out[f"beta{i}"] = -2 * i
    return DivisorClass.from_mapping(spin_basis(g), out)


def bn_divisor_exists(g: int) -> bool:
    """A Brill-Noether divisor exists exactly when g+1 is composite."""
    n = g + 1
    return n >= 4 and any(n % k == 0 for k in range(2, math.isqrt(n) + 1))


def bn_divisor_class(g: int) -> DivisorClass:
    """Brill-Noether divisor class with the overall constant normalized to 1:
    (g+3) lambda - (g+1)/6 delta_0 - sum i(g-i) delta_i.

    The formula is returned for any g >= 3; existence of an actual divisor
    of this slope needs g+1 composite, which callers report separately.
    """
    out = {"lambda": g + 3, "delta0": -Fraction(g + 1, 6)}
    for i in range(1, g // 2 + 1):
        out[f"delta{i}"] = -i * (g - i)
    return DivisorClass.from_mapping(moduli_basis(g), out)


# ---------------------------------------------------------------------------
# Test curves
# ---------------------------------------------------------------------------

def _higher_boundary(*kinds: str):
    """The assumed-zero rule: each ``kinds`` generator of index 2..g//2, in
    the order alpha2, beta2, alpha3, ..., sliced from the basis names, where
    a kind's index-j name stands j places after its index-0 name."""
    firsts = [f"{kind}0" for kind in kinds]
    return lambda basis, pairings: tuple([name for names in zip(*[
        basis.names[i + 2:i + basis.g // 2 + 1] for i in map(basis.index, firsts)])
        for name in names])


# name -> (basis builder, pairing rule, assumed-zero rule), in the order the
# CLI lists them.  A pairing rule maps g (and the index i of a family in
# INDEXED_CURVES) to the recorded pairings by name; an assumed-zero rule maps
# the basis and those pairings to the generators zero-filled by convention.
TEST_CURVES = {
    "F": (spin_basis, lambda g, i: {f"alpha{i}": 2 - 2 * i}, None),
    "G": (spin_basis, lambda g, i: {f"beta{i}": 2 - 2 * i}, None),
    "H0": (spin_basis, lambda g: {"beta0": 1 - g, "beta1": 1}, _higher_boundary("alpha", "beta")),
    "F0": (spin_basis, lambda g: {"lambda": 1, "alpha0": 12, "alpha1": -1}, None),
    "G0": (spin_basis, lambda g: {"lambda": 3, "alpha0": 12, "beta0": 12, "beta1": -3}, None),
    "C0": (moduli_basis, lambda g: {"delta0": 2 - 2 * g, "delta1": 1}, None),
    "C1": (moduli_basis, lambda g: {"delta1": 4 - 2 * g}, None),
    "R": (moduli_basis, lambda g: {"lambda": 1, "delta0": 12, "delta1": -1},
          _higher_boundary("delta")),
    "P": (spin_basis, lambda g: {"lambda": g + 1, "alpha0": 4 * g + 20, "beta0": g - 1},
          lambda basis, pairings: tuple(n for n in basis.names if n not in pairings)),
}
INDEXED_CURVES = ("F", "G")


def test_curve(name: str, g: int, i: int | None = None) -> TestCurve:
    """Standard boundary test curves, one entry of ``TEST_CURVES`` each.

    Spin-basis families: F (odd-even pointed gluing sweeping a boundary
    component, index i), G (even-odd variant), F0/G0 (the two spin lifts of
    a plane-cubic pencil), H0, also spelled H (the family sweeping the
    ramification divisor beta_0) and P (the covering pencil cut out by
    theta hyperplanes on a polarized K3 surface, g >= 3).  Moduli-basis
    families: C0 (identifying a moving point with a fixed one), C1
    (attaching a fixed elliptic tail at a moving point) and R (the
    plane-cubic pencil itself).
    """
    if name in INDEXED_CURVES:
        if i is None or not 1 <= i <= g // 2:
            raise PreconditionError(f"index for {name} must lie in 1..{g // 2}")
    elif i is not None:
        raise PreconditionError(f"curve {name} takes no index")
    if name == "P" and g < 3:
        raise PreconditionError("theta pencils need g >= 3")
    key = "H0" if name == "H" else name
    if key not in TEST_CURVES:
        raise PreconditionError(f"unknown test curve {name!r}")
    return TestCurve(*_curve_row(key, g, i))


def _curve_row(key: str, g: int, i: int | None = None):
    """The ``TEST_CURVES`` entry ``key`` in genus g (family index i) as the
    fields of its ``TestCurve``: the one reading of the table, so
    ``solve_zg`` builds no ``TestCurve`` per row.  The pairings are read by
    ``PicBasis.entries``; a curve meets every divisor in an integer, so a
    common denominator other than 1 is refused."""
    build_basis, pairing_rule, assumed_rule = TEST_CURVES[key]
    basis = build_basis(g)
    label = key if i is None else f"{key}{i}"
    pairings = pairing_rule(g) if i is None else pairing_rule(g, i)
    assumed = assumed_rule(basis, pairings) if assumed_rule else ()
    row, den = basis.entries(pairings)
    if den != 1:
        raise PreconditionError(f"test curve {label} has a non-integer pairing")
    return label, basis, row, assumed


class ThetaPencilProfile(Record):
    """Pairing profile of the theta pencil ``curve`` (test curve P), plus
    its discriminant bookkeeping."""

    __slots__ = ("g", "curve", "discriminant_degree", "base_point_contacts",
                 "free_nodal_members", "decomposition_ok", "canonical_pairing")


def theta_pencil_profile(g: int) -> ThetaPencilProfile:
    """Pencil pairings (lambda: g+1, alpha_0: 4g+20, beta_0: g-1, rest 0).

    The discriminant of the pencil has degree 6g+18 and splits as twice the
    base-point contacts plus the free nodal members, read from P's entry of
    ``TEST_CURVES`` as its beta_0 and alpha_0 pairings; ``decomposition_ok``
    checks that entry against 6g+18.
    """
    curve = test_curve("P", g)
    base_contacts, free_nodal = curve.pairing("beta0"), curve.pairing("alpha0")
    return ThetaPencilProfile(
        g=g,
        curve=curve,
        discriminant_degree=6 * g + 18,
        base_point_contacts=base_contacts,
        free_nodal_members=free_nodal,
        decomposition_ok=(2 * base_contacts + free_nodal == 6 * g + 18),
        canonical_pairing=pair(curve, canonical_class(SPIN, g)),
    )


# ---------------------------------------------------------------------------
# Reconstruction of the degenerate-theta class from test-curve data
# ---------------------------------------------------------------------------

class ZgSolveReport(Record):
    __slots__ = ("g", "divisor_class", "matches_closed_form", "full_rank", "degenerate",
                 "undetermined", "fallback_consistent", "row_labels", "assumptions")


def solve_zg(g: int) -> ZgSolveReport:
    """Reconstruct the degenerate-theta class from its test-curve pairings.

    The system stacks: the Hodge coefficient from the degeneracy-locus
    push-forward; the F-family rows (the i = 1 pairing row is identically
    zero, so the family's closed form, raw alpha_1 = -2(g-1), stands in
    for it); the G-family rows for i >= 2; and the three pencil rows F0,
    G0, H0.  The beta_1 coefficient is deliberately left to the pencil
    rows, which is why the system degenerates exactly at g = 5, where the
    G0 and H0 relations coincide.  On degeneracy the closed form is
    returned with an explicit flag after checking it against every row.
    """
    basis = spin_basis(g)
    m = g // 2
    names = basis.names
    system = [
        ({basis.index("lambda"): 1}, degenerate_theta_lambda_coefficient(g), "porteous-lambda"),
        ({basis.index("alpha1"): 1}, -2 * (g - 1), "family-F1-closed-form"),
    ]
    assumptions = [
        "alpha1 row uses the boundary-family closed form 2(g-1);"
        " the F_1 pairing row is identically zero"
    ]
    curves = [("F", i, 4 * (g - i) * (i - 1), "family-") for i in range(2, m + 1)]
    curves += [("G", i, 4 * i * (i - 1), "family-") for i in range(2, m + 1)]
    curves += [(key, None, value, "pencil-")
               for key, value in (("F0", 0), ("G0", 0), ("H0", 2 * (g - 2)))]
    for key, i, value, kind in curves:
        label, _, row, assumed = _curve_row(key, g, i)
        system.append((dict(row), value, kind + label))
        assumptions.extend([f"{label}:{gen}" for gen in assumed])
    rows, rhs, labels = zip(*system)

    report, numerators, den = solve_over_lcm(rows, len(names), rhs)
    if report.status == "inconsistent":
        raise InternalCheckError(
            f"test-curve system for g={g} is inconsistent at reduced row"
            f" {report.witness_row}"
        )
    closed = zg_class(g)
    full_rank = report.status == "unique"
    if full_rank:
        solved = DivisorClass.reduced(basis, numerators, den)
        consistent = True
    else:
        solved = closed
        consistent = all(
            sum(v * closed.numerators[j] for j, v in row.items()) * q
            == p * closed.denominator
            for row, (p, q) in zip(rows, map(ratio, rhs))
        )
        assumptions.append("degenerate system: closed-form fallback returned")
    return ZgSolveReport(
        g=g,
        divisor_class=solved,
        matches_closed_form=(solved == closed),
        full_rank=full_rank,
        degenerate=not full_rank,
        undetermined=tuple(names[c] for c in report.undetermined_columns),
        fallback_consistent=consistent,
        row_labels=labels,
        assumptions=tuple(assumptions),
    )


# ---------------------------------------------------------------------------
# Combinations, slopes and general-type certificates
# ---------------------------------------------------------------------------

def combine(classes: Sequence[DivisorClass], weights: Sequence) -> DivisorClass:
    """Exact linear combination of classes over a common basis."""
    if len(classes) != len(weights):
        raise PreconditionError("combine needs one weight per class")
    if not classes:
        raise PreconditionError("combine needs at least one class")
    return DivisorClass.weighted_sum(classes[0].basis, zip(weights, classes))


def slope(c: DivisorClass) -> Fraction:
    """a / b_0 for a class a*lambda - sum b_j delta_j on the moduli basis."""
    if c.basis.space != MODULI:
        raise BasisMismatchError("slope is defined for classes on the moduli basis")
    b0 = c.bar("delta0")
    if b0 == 0:
        raise UndefinedSlopeError(
            "undefined slope: the delta_0 coefficient vanishes"
        )
    return c.coefficient("lambda") / b0


class CertificateReport(Record):
    """Exact decomposition K - mu*lambda = x*Z + y*aux + nonnegative boundary."""

    __slots__ = ("g", "auxiliary", "weight_zg", "weight_aux", "mu", "slacks",
                 "assumed_zero_pairings", "assumptions", "verdict")

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "weights": {
                "zg": format_scalar(self.weight_zg),
                "aux": format_scalar(self.weight_aux),
            },
            "mu": format_scalar(self.mu),
            "slacks": {name: format_scalar(v) for name, v in self.slacks},
            "assumed_zero_pairings": list(self.assumed_zero_pairings),
            "verdict": self.verdict,
        }


def certificate(g: int, auxiliary: str) -> CertificateReport:
    """Bigness certificate for the spin canonical class.

    The weights x on the degenerate-theta divisor and y on the pulled-back
    auxiliary divisor solve the 2x2 system that matches the alpha_0 and
    beta_0 coefficients of the canonical class.  auxiliary "bn" is the
    Brill-Noether class (g >= 13; in genus 12 no Brill-Noether divisor
    exists).  auxiliary "d12" (genus 12 only) is the genus-12 divisor, with
    its unknown higher boundary coefficients conservatively set to b_1
    (larger values only increase slack).
    """
    aux = auxiliary.lower()
    if aux not in ("bn", "d12"):
        raise PreconditionError(f"unknown auxiliary divisor {auxiliary!r}")
    if g < 12:
        raise PreconditionError("general-type certificates start at genus 12")

    assumptions: list[str] = []
    assumed_zero: list[str] = []

    if aux == "bn":
        if g == 12:
            raise PreconditionError(
                "no Brill-Noether divisor exists in genus 12;"
                " use the d12 auxiliary divisor instead"
            )
        aux_spin = pullback(g, bn_divisor_class(g))
        if not bn_divisor_exists(g):
            assumptions.append(
                "g+1 is prime, so no Brill-Noether divisor of this slope exists;"
                " the combination is formal"
            )
    else:
        if g != 12:
            raise PreconditionError("the d12 auxiliary divisor lives on genus 12")
        from . import genus12

        info = genus12.d12_class_info()
        aux_spin = pullback(g, info.divisor)
        assumptions.extend(info.assumptions)
        assumed_zero.extend(info.assumed_zero_pairings)

    canonical = canonical_class(SPIN, g)
    zg = zg_class(g)
    matched = [canonical.basis.index(name) for name in ("alpha0", "beta0")]
    zd, ad, cd = zg.denominator, aux_spin.denominator, canonical.denominator  # rows in ints
    solved = solve_linear(
        [{0: zg.numerators[j] * ad * cd, 1: aux_spin.numerators[j] * zd * cd} for j in matched],
        2,
        [canonical.numerators[j] * zd * ad for j in matched],
    )
    if solved.status != "unique":
        raise InternalCheckError("certificate weight system is degenerate")
    x, y = solved.solution

    combo = combine([zg, aux_spin], [x, y])
    if any(combo.numerators[j] * cd != canonical.numerators[j] * combo.denominator
           for j in matched):
        raise InternalCheckError(
            "certificate combination does not match the canonical boundary"
            " coefficients at alpha_0, beta_0"
        )

    residual = canonical - combo
    mu = residual.coefficient("lambda")
    # mu absorbs the whole lambda residual, so the lambda slack is 0
    slacks = tuple(
        (name, ZERO if name == "lambda" else value)
        for name, value in zip(residual.basis.names, residual.coefficients)
    )
    ok = residual.numerators[0] > 0 and min(residual.numerators) >= 0  # mu, then the slacks

    return CertificateReport(
        g=g,
        auxiliary=aux,
        weight_zg=x,
        weight_aux=y,
        mu=mu,
        slacks=tuple(slacks),
        assumed_zero_pairings=tuple(assumed_zero),
        assumptions=tuple(assumptions),
        verdict="pass" if ok else "fail",
    )
