"""Exact divisor-class arithmetic on the Picard groups of the odd spin
moduli space and of the moduli of stable curves.

Bases.  The spin space uses generators lambda, alpha_0..alpha_{g//2},
beta_0..beta_{g//2} (alpha/beta distinguish the two spin boundary
components over each boundary divisor of the curve moduli space); the
curve moduli space uses lambda, delta_0..delta_{g//2}.

Sign convention.  A DivisorClass stores raw signed coefficients.  The
classical bookkeeping writes boundary coefficients with a minus sign in
front (a*lambda - sum b_i * boundary_i); the ``bar`` accessor recovers that
convention by negating boundary entries, which keeps a pervasive source of
sign errors in one place.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BasisMismatchError,
    InternalCheckError,
    PreconditionError,
    UndefinedSlopeError,
)
from .linalg import solve_linear
from .numerics import boundary_degrees, theta_counts
from .record import Record, set_field
from .ring import _render_terms, preset_universal_curve, pushforward_relative
from .scalars import ZERO, as_scalar, format_scalar

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


# bounded; 64 bases hold a solve-zg sweep over g = 3..40, each built once
@lru_cache(maxsize=64)
def spin_basis(g: int) -> PicBasis:
    if g < 3:
        raise PreconditionError("spin Picard basis needs g >= 3")
    m = g // 2
    names = ("lambda",) + tuple(f"alpha{i}" for i in range(m + 1)) + tuple(
        f"beta{i}" for i in range(m + 1)
    )
    return PicBasis(SPIN, g, names)


@lru_cache(maxsize=64)
def moduli_basis(g: int) -> PicBasis:
    if g < 3:
        raise PreconditionError("moduli Picard basis needs g >= 3")
    names = ("lambda",) + tuple(f"delta{i}" for i in range(g // 2 + 1))
    return PicBasis(MODULI, g, names)


class DivisorClass(Record):
    __slots__ = ("basis", "coefficients")

    def __init__(self, basis: PicBasis, coefficients: tuple[Fraction, ...]):
        set_field(self, "basis", basis)
        set_field(self, "coefficients", coefficients)

    @staticmethod
    def from_mapping(basis: PicBasis, mapping: Mapping[str, object]) -> "DivisorClass":
        vec = [ZERO] * len(basis.names)
        for name, value in mapping.items():
            vec[basis.index(name)] = as_scalar(value)
        return DivisorClass(basis, tuple(vec))

    def coefficient(self, name: str) -> Fraction:
        return self.coefficients[self.basis.index(name)]

    def bar(self, name: str) -> Fraction:
        """Coefficient in the a*lambda - sum b*boundary convention."""
        raw = self.coefficient(name)
        return raw if name == "lambda" else -raw

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def _require_same_basis(self, other: "DivisorClass") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"classes live in different bases: {self.basis.label} vs {other.basis.label}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_basis(other)
        return DivisorClass(
            self.basis,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_basis(other)
        return DivisorClass(
            self.basis,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis, tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = as_scalar(other)
            return DivisorClass(self.basis, tuple(scale * c for c in self.coefficients))
        return NotImplemented

    __rmul__ = __mul__

    def render(self) -> str:
        pairs = [
            (name, coeff)
            for name, coeff in zip(self.basis.names, self.coefficients)
            if coeff != 0
        ]
        return _render_terms(pairs)

    def __str__(self) -> str:
        return self.render()

    def coefficients_by_name(self) -> dict[str, str]:
        return {
            name: format_scalar(coeff)
            for name, coeff in zip(self.basis.names, self.coefficients)
        }


class TestCurve(Record):
    """A one-parameter family paired against every Picard generator.

    ``assumed_zero`` lists the generators whose vanishing pairing is a
    zero-fill assumption rather than an explicitly recorded value; reports
    propagate these flags.
    """

    __slots__ = ("name", "basis", "pairings", "assumed_zero")

    def __init__(self, name: str, basis: PicBasis, pairings: tuple[Fraction, ...],
                 assumed_zero: tuple[str, ...] = ()):
        super().__init__(name, basis, pairings, assumed_zero)

    @staticmethod
    def from_pairings(
        name: str,
        basis: PicBasis,
        mapping: Mapping[str, object],
        assumed_zero: Sequence[str] = (),
    ) -> "TestCurve":
        vec = [ZERO] * len(basis.names)
        for gen_name, value in mapping.items():
            vec[basis.index(gen_name)] = as_scalar(value)
        return TestCurve(name, basis, tuple(vec), tuple(assumed_zero))

    def pairing(self, name: str) -> Fraction:
        return self.pairings[self.basis.index(name)]

    def assumed_zero_labels(self) -> tuple[str, ...]:
        return tuple(f"{self.name}:{gen}" for gen in self.assumed_zero)


def pair(t: TestCurve, c: DivisorClass) -> Fraction:
    """Exact intersection pairing (dot product over the common basis)."""
    if t.basis != c.basis:
        raise BasisMismatchError(
            f"curve on {t.basis.label} cannot pair with class on {c.basis.label}"
        )
    return sum((p * v for p, v in zip(t.pairings, c.coefficients)), start=ZERO)


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
    target = spin_basis(g)
    out = {"lambda": c.coefficient("lambda")}
    d0 = c.coefficient("delta0")
    out["alpha0"] = d0
    out["beta0"] = 2 * d0
    for i in range(1, g // 2 + 1):
        di = c.coefficient(f"delta{i}")
        out[f"alpha{i}"] = di
        out[f"beta{i}"] = di
    return DivisorClass.from_mapping(target, out)


def pushforward(g: int, c: DivisorClass) -> DivisorClass:
    """Push a spin class down to the moduli basis using covering degrees."""
    if c.basis != spin_basis(g):
        raise BasisMismatchError("pushforward expects a class on the spin basis")
    target = moduli_basis(g)
    out = {"lambda": covering_degree(g) * c.coefficient("lambda")}
    for i in range(g // 2 + 1):
        deg_a, deg_b = boundary_degrees(g, i)
        out[f"delta{i}"] = (
            deg_a * c.coefficient(f"alpha{i}") + deg_b * c.coefficient(f"beta{i}")
        )
    return DivisorClass.from_mapping(target, out)


# ---------------------------------------------------------------------------
# Named divisor classes
# ---------------------------------------------------------------------------

def canonical_class(space: str, g: int) -> DivisorClass:
    """Canonical class of the chosen moduli space.

    The spin canonical class equals the pullback of the moduli one plus
    beta_0 (the covering is simply branched there); this identity is
    asserted on every call.
    """
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
    c1 = -lambda/4.  Closed form: g + 8.
    """
    preset = preset_universal_curve(g)
    omega = preset.gen("omega")
    lam = preset.gen("lambda")
    integrand = Fraction(3, 4) * omega * omega - 2 * omega * (Fraction(-1, 4) * lam)
    return pushforward_relative(integrand, g)


def zg_class(g: int) -> DivisorClass:
    """Class of the divisor of odd spin curves with non-reduced support:
    (g+8) lambda - (g+2)/4 alpha_0 - 2 beta_0 - sum 2(g-i) alpha_i - sum 2i beta_i.
    """
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

def test_curve(name: str, g: int, i: int | None = None) -> TestCurve:
    """Standard boundary test curves.

    Spin-basis families: F (odd-even pointed gluing sweeping a boundary
    component, index i), G (even-odd variant), F0/G0 (the two spin lifts of
    a plane-cubic pencil), H (the family sweeping the ramification divisor
    beta_0).  Moduli-basis families: C0 (identifying a moving point with a
    fixed one), C1 (attaching a fixed elliptic tail at a moving point) and
    R (the plane-cubic pencil itself).  Pairings not recorded are zero; the
    assumed_zero flags mark the entries that are zero-filled by convention
    rather than explicitly known.
    """
    m = g // 2
    if name in ("F", "G"):
        if i is None or not 1 <= i <= m:
            raise PreconditionError(f"index for {name} must lie in 1..{m}")
        gen = f"alpha{i}" if name == "F" else f"beta{i}"
        return TestCurve.from_pairings(
            f"{name}{i}", spin_basis(g), {gen: 2 - 2 * i}
        )
    if i is not None:
        raise PreconditionError(f"curve {name} takes no index")
    if name == "F0":
        return TestCurve.from_pairings(
            "F0", spin_basis(g), {"lambda": 1, "alpha0": 12, "alpha1": -1}
        )
    if name == "G0":
        return TestCurve.from_pairings(
            "G0", spin_basis(g), {"lambda": 3, "alpha0": 12, "beta0": 12, "beta1": -3}
        )
    if name in ("H", "H0"):
        assumed = tuple(
            f"{kind}{j}" for j in range(2, m + 1) for kind in ("alpha", "beta")
        )
        return TestCurve.from_pairings(
            "H0", spin_basis(g), {"beta0": 1 - g, "beta1": 1}, assumed_zero=assumed
        )
    if name == "C0":
        return TestCurve.from_pairings(
            "C0", moduli_basis(g), {"delta0": 2 - 2 * g, "delta1": 1}
        )
    if name == "C1":
        return TestCurve.from_pairings(
            "C1", moduli_basis(g), {"delta1": 4 - 2 * g}
        )
    if name == "R":
        assumed = tuple(f"delta{j}" for j in range(2, m + 1))
        return TestCurve.from_pairings(
            "R", moduli_basis(g), {"lambda": 1, "delta0": 12, "delta1": -1},
            assumed_zero=assumed,
        )
    raise PreconditionError(f"unknown test curve {name!r}")


# ---------------------------------------------------------------------------
# Reconstruction of the degenerate-theta class from test-curve data
# ---------------------------------------------------------------------------

class ZgSolveReport(Record):
    __slots__ = ("g", "divisor_class", "matches_closed_form", "full_rank", "degenerate",
                 "undetermined", "fallback_consistent", "row_labels", "assumptions")


def _bar_pairing_row(curve: TestCurve) -> dict[int, Fraction]:
    # pairing with a*lambda - sum b*boundary, expressed in the bar unknowns
    # and keyed by column; column 0 is lambda
    return {
        j: value if j == 0 else -value
        for j, value in enumerate(curve.pairings)
        if value
    }


def solve_zg(g: int) -> ZgSolveReport:
    """Reconstruct the degenerate-theta class from its test-curve pairings.

    The system stacks: the Hodge coefficient from the degeneracy-locus
    push-forward; the F-family rows (the i = 1 pairing row is identically
    zero, so the i = 1 entry of the family's closed form 2(g-1) stands in
    for it); the G-family rows for i >= 2; and the three pencil rows F0,
    G0, H0.  The beta_1 coefficient is deliberately left to the pencil
    rows, which is why the system degenerates exactly at g = 5, where the
    G0 and H0 relations coincide.  On degeneracy the closed form is
    returned with an explicit flag after checking it against every row.
    """
    basis = spin_basis(g)
    m = g // 2
    names = basis.names
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    assumptions: list[str] = []

    rows.append({basis.index("lambda"): as_scalar(1)})
    rhs.append(degenerate_theta_lambda_coefficient(g))
    labels.append("porteous-lambda")

    rows.append({basis.index("alpha1"): as_scalar(1)})
    rhs.append(as_scalar(2 * (g - 1)))
    labels.append("family-F1-closed-form")
    assumptions.append(
        "alpha1 row uses the boundary-family closed form 2(g-1);"
        " the F_1 pairing row is identically zero"
    )

    for i in range(2, m + 1):
        curve = test_curve("F", g, i)
        rows.append(_bar_pairing_row(curve))
        rhs.append(as_scalar(4 * (g - i) * (i - 1)))
        labels.append(f"family-F{i}")
    for i in range(2, m + 1):
        curve = test_curve("G", g, i)
        rows.append(_bar_pairing_row(curve))
        rhs.append(as_scalar(4 * i * (i - 1)))
        labels.append(f"family-G{i}")

    for curve_name, value in (("F0", 0), ("G0", 0), ("H", 2 * (g - 2))):
        curve = test_curve(curve_name, g)
        rows.append(_bar_pairing_row(curve))
        rhs.append(as_scalar(value))
        labels.append(f"pencil-{curve.name}")
        assumptions.extend(curve.assumed_zero_labels())

    report = solve_linear(rows, len(names), rhs)
    closed = zg_class(g)

    if report.status == "unique":
        solved = DivisorClass(
            basis,
            tuple(
                v if name == "lambda" else -v
                for name, v in zip(names, report.solution)
            ),
        )
        return ZgSolveReport(
            g=g,
            divisor_class=solved,
            matches_closed_form=(solved == closed),
            full_rank=True,
            degenerate=False,
            undetermined=(),
            fallback_consistent=True,
            row_labels=tuple(labels),
            assumptions=tuple(assumptions),
        )

    if report.status == "inconsistent":
        raise InternalCheckError(
            f"test-curve system for g={g} is inconsistent at reduced row"
            f" {report.witness_row}"
        )

    fallback_vec = [closed.bar(name) for name in names]
    consistent = all(
        sum((v * fallback_vec[j] for j, v in row.items()), start=ZERO) == rhs_value
        for row, rhs_value in zip(rows, rhs)
    )
    undetermined = tuple(names[c] for c in report.undetermined_columns)
    return ZgSolveReport(
        g=g,
        divisor_class=closed,
        matches_closed_form=True,
        full_rank=False,
        degenerate=True,
        undetermined=undetermined,
        fallback_consistent=consistent,
        row_labels=tuple(labels),
        assumptions=tuple(assumptions)
        + ("degenerate system: closed-form fallback returned",),
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
    basis = classes[0].basis
    total = DivisorClass(basis, (ZERO,) * len(basis.names))
    for cls, weight in zip(classes, weights):
        total = total + as_scalar(weight) * cls
    return total


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

    def passed(self) -> bool:
        return self.verdict == "pass"

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

    zg = zg_class(g)
    solved = solve_linear(
        [
            {0: zg.bar("alpha0"), 1: aux_spin.bar("alpha0")},
            {0: zg.bar("beta0"), 1: aux_spin.bar("beta0")},
        ],
        2,
        [as_scalar(2), as_scalar(3)],
    )
    if solved.status != "unique":
        raise InternalCheckError("certificate weight system is degenerate")
    x, y = solved.solution

    combo = combine([zg, aux_spin], [x, y])
    if combo.bar("alpha0") != 2 or combo.bar("beta0") != 3:
        raise InternalCheckError(
            "certificate combination does not match the canonical boundary"
            " coefficients at alpha_0, beta_0"
        )

    canonical = canonical_class(SPIN, g)
    mu = canonical.coefficient("lambda") - combo.coefficient("lambda")
    residual = canonical - combo
    slacks = []
    ok = mu > 0
    for name in canonical.basis.names:
        value = residual.coefficient(name)
        if name == "lambda":
            value -= mu
        slacks.append((name, value))
        if name == "lambda":
            ok = ok and value == 0
        else:
            ok = ok and value >= 0

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
