"""Sparse graded-commutative polynomial engine over three ring presets.

All cohomology computations in this package happen inside one of three
small ring presets:

* ``jacobian``: the product of a curve with a Jacobian.  Degree-1
  generators eta (point class on the curve factor), gamma (the mixed
  Kuenneth piece of the Poincare bundle) and theta (the polarization),
  the Chern classes c_1..c_{r+1} of the dual tautological bundle (degree i)
  and an inert degree-1 kernel class k that only ``bn.restrict_to_locus``
  consumes.  The relations eta^2 = eta*gamma = 0 and
  gamma^2 = -2*eta*theta have a closed normal form: a monomial with
  eta + gamma >= 2 vanishes unless it is gamma^2*theta^t times a c/k
  part (no eta), which becomes -2*eta*theta^(t+1) times the same part.  A
  monomial whose eta, gamma, theta part has degree above g+1, the
  dimension of the ambient product, is zero whatever its c- and k-part,
  and is dropped; the relations keep that degree, so the dropped
  monomials form an ideal and products do not depend on bracketing.
* ``surface``: the self-product of a curve, generated by the two fiber
  classes F1, F2 and the diagonal Delta, with the top-degree pairing
  table F1.F2 = Delta.F1 = Delta.F2 = 1, F1^2 = F2^2 = 0 and
  Delta^2 = 2 - 2g.  Monomials above degree 2 are dropped.
* ``universal-curve``: the universal spin curve, generated by the relative
  dualizing class omega and the pulled-back Hodge class lambda; it has no
  relations and is consumed by ``pushforward_relative``.

Monomials are exponent vectors over the preset's fixed generator order;
elements are sparse maps from normalized monomials to nonzero rationals.

Integration conventions, fixed once for the whole package: on the
Jacobian-product preset the only monomial with nonzero integral is
eta*theta^g, with value g! (the classical Poincare normalization); on the
surface preset integration reads off the pairing table.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import PreconditionError, PresetMismatchError, RingDomainError
from .record import Record, set_field
from .scalars import ONE, ZERO, as_scalar, format_scalar

JACOBIAN = "jacobian"
SURFACE = "surface"
UNIVERSAL_CURVE = "universal-curve"

Monomial = tuple[int, ...]

# Generator layout of the jacobian preset: eta, gamma, theta on the curve x
# Jacobian factor, then the Chern classes c_1..c_{r+1}, then the kernel class k.
ETA, GAMMA, THETA, C1 = 0, 1, 2, 3
K = -1
TAUTOLOGICAL = slice(C1, None)  # c_1..c_{r+1} and k


class RingPreset(Record):
    __slots__ = ("label", "kind", "names", "degrees", "top_degree", "params", "pairings")

    def __init__(self, label: str, kind: str, names: tuple[str, ...],
                 degrees: tuple[int, ...], top_degree: int | None,
                 params: tuple[tuple[str, int], ...] = (),
                 pairings: tuple[tuple[Monomial, Fraction], ...] = ()):
        super().__init__(label, kind, names, degrees, top_degree, params, pairings)

    # -- bookkeeping -------------------------------------------------
    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RingDomainError(f"no generator {name!r} in preset {self.label}") from None

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def monomial_text(self, mono: Monomial) -> str:
        parts = []
        for e, name in zip(mono, self.names):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{format_scalar(e)}")
        return "*".join(parts)

    # -- element construction ----------------------------------------
    def zero(self) -> "RingElem":
        return RingElem(self, ())

    def one(self) -> "RingElem":
        return self.element({(0,) * len(self.names): 1})

    def gen(self, name: str) -> "RingElem":
        mono = [0] * len(self.names)
        mono[self.index(name)] = 1
        return self.element({tuple(mono): 1})

    def element(self, terms: Mapping[Monomial, object]) -> "RingElem":
        acc = _normalize(self, ((m, as_scalar(c)) for m, c in terms.items()))
        return RingElem(self, tuple(sorted(acc.items(), reverse=True)))


def _normalize(preset: RingPreset, raw: Iterable[tuple[Monomial, Fraction]]) -> dict:
    """Sum ``raw`` into normal form: the Jacobian closed form, then truncation."""
    acc: dict[Monomial, Fraction] = {}
    jacobian, top = preset.kind == JACOBIAN, preset.top_degree
    for mono, coeff in raw:
        if jacobian:
            if mono[ETA] + mono[GAMMA] >= 2:
                if mono[ETA] or mono[GAMMA] != 2:
                    continue
                mono = (1, 0, mono[THETA] + 1) + mono[C1:]
                coeff = -2 * coeff
            if mono[ETA] + mono[GAMMA] + mono[THETA] > top:
                continue
        elif top is not None and preset.monomial_degree(mono) > top:
            continue
        total = acc.get(mono, ZERO) + coeff
        if total == 0:
            acc.pop(mono, None)
        else:
            acc[mono] = total
    return acc


class RingElem(Record):
    """Sparse normalized element of a ring preset.  Immutable."""

    __slots__ = ("preset", "terms")

    def __init__(self, preset: RingPreset, terms: tuple[tuple[Monomial, Fraction], ...]):
        set_field(self, "preset", preset)
        set_field(self, "terms", terms)

    # -- inspection ---------------------------------------------------
    def coefficient(self, mono: Monomial) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        if not self.terms:
            return None
        return max(self.preset.monomial_degree(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {self.preset.monomial_degree(m) for m, _ in self.terms}
        return len(degrees) <= 1

    def homogeneous_part(self, degree: int) -> "RingElem":
        kept = {m: c for m, c in self.terms if self.preset.monomial_degree(m) == degree}
        return self.preset.element(kept)

    # -- arithmetic ---------------------------------------------------
    def _require_same_preset(self, other: "RingElem") -> None:
        if self.preset != other.preset:
            raise PresetMismatchError(
                f"operands live in different presets: {self.preset.label} vs {other.preset.label}"
            )

    def __add__(self, other):
        if isinstance(other, RingElem):
            self._require_same_preset(other)
            acc = dict(self.terms)
            for m, c in other.terms:
                total = acc.get(m, ZERO) + c
                if total == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = total
            return RingElem(self.preset, tuple(sorted(acc.items(), reverse=True)))
        if isinstance(other, (int, Fraction)):
            return self + as_scalar(other) * self.preset.one()
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.preset, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (RingElem, int, Fraction)):
            return self + (-other if isinstance(other, RingElem) else -as_scalar(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RingElem):
            self._require_same_preset(other)
            raw = []
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    raw.append((tuple(a + b for a, b in zip(m1, m2)), c1 * c2))
            acc = _normalize(self.preset, raw)
            return RingElem(self.preset, tuple(sorted(acc.items(), reverse=True)))
        if isinstance(other, (int, Fraction)):
            scale = as_scalar(other)
            if scale == 0:
                return self.preset.zero()
            return RingElem(self.preset, tuple((m, c * scale) for m, c in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise RingDomainError("ring exponents are nonnegative integers")
        if len(self.terms) == 1:
            # the normal form is a ring homomorphism, so a monomial's power is
            # its exponent vector times n, normalised once; a truncated power
            # is dropped before its coefficient is raised
            ((mono, coeff),) = self.terms
            acc = _normalize(self.preset, [(tuple(n * e for e in mono), ONE)])
            return RingElem(self.preset, tuple((m, c * coeff**n) for m, c in acc.items()))
        # square and multiply; a zero square or partial product ends it early
        result, square = self.preset.one(), self
        while n and not result.is_zero():
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
                if square.is_zero():
                    return square
        return result

    # -- rendering ----------------------------------------------------
    def render(self) -> str:
        return _render_terms(
            [(self.preset.monomial_text(m), c) for m, c in self.terms]
        )

    def __str__(self) -> str:
        return self.render()


def _render_terms(pairs: list[tuple[str, Fraction]]) -> str:
    """Deterministic ASCII rendering that re-parses under the CLI grammar."""
    if not pairs:
        return "0"
    out = []
    for idx, (body, coeff) in enumerate(pairs):
        if idx == 0:
            if not body:
                out.append(format_scalar(coeff))
            elif coeff == 1:
                out.append(body)
            elif coeff == -1:
                out.append(f"-1*{body}")
            else:
                out.append(f"{format_scalar(coeff)}*{body}")
            continue
        sep = " + " if coeff > 0 else " - "
        mag = coeff if coeff > 0 else -coeff
        if not body:
            out.append(sep + format_scalar(mag))
        elif mag == 1:
            out.append(sep + body)
        else:
            out.append(sep + f"{format_scalar(mag)}*{body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_jacobian_product(g: int, d: int, r: int) -> RingPreset:
    """Cohomology preset for curve x Pic^d with a rank r+1 tautological bundle."""
    if g < 1 or d < 0 or r < 0:
        raise PreconditionError(
            f"jacobian preset needs g >= 1, d >= 0, r >= 0 (got g={g}, d={d}, r={r})"
        )
    # in the order ETA, GAMMA, THETA, C1.. and K of the layout constants
    names = ("eta", "gamma", "theta") + tuple(f"c{i}" for i in range(1, r + 2)) + ("k",)
    return RingPreset(
        label=f"jacobian(g={g},d={d},r={r})",
        kind=JACOBIAN,
        names=names,
        degrees=(1, 1, 1) + tuple(range(1, r + 2)) + (1,),
        top_degree=g + 1,
        params=(("d", d), ("g", g), ("r", r)),
    )


def preset_surface_product(g: int) -> RingPreset:
    """Cohomology preset for the self-product of a genus-g curve."""
    if g < 2:
        raise PreconditionError(f"surface preset needs g >= 2 (got g={g})")
    pairings = (
        ((2, 0, 0), ZERO),
        ((1, 1, 0), as_scalar(1)),
        ((1, 0, 1), as_scalar(1)),
        ((0, 2, 0), ZERO),
        ((0, 1, 1), as_scalar(1)),
        ((0, 0, 2), as_scalar(2 - 2 * g)),
    )
    return RingPreset(
        label=f"surface(g={g})",
        kind=SURFACE,
        names=("F1", "F2", "Delta"),
        degrees=(1, 1, 1),
        top_degree=2,
        params=(("g", g),),
        pairings=pairings,
    )


def preset_universal_curve(g: int) -> RingPreset:
    """Preset for the universal curve: omega over the Hodge class lambda."""
    if g < 2:
        raise PreconditionError(f"universal-curve preset needs g >= 2 (got g={g})")
    return RingPreset(
        label=f"universal-curve(g={g})",
        kind=UNIVERSAL_CURVE,
        names=("omega", "lambda"),
        degrees=(1, 1),
        top_degree=None,
        params=(("g", g),),
    )


def surface_canonical_class(preset: RingPreset) -> RingElem:
    """Canonical class (2g-2)(F1 + F2) of the self-product surface."""
    if preset.kind != SURFACE:
        raise RingDomainError("canonical class is defined on the surface preset")
    g = preset.param("g")
    return (2 * g - 2) * (preset.gen("F1") + preset.gen("F2"))


# ---------------------------------------------------------------------------
# Integration functionals
# ---------------------------------------------------------------------------

def integrate(e: RingElem) -> Fraction:
    """Evaluate the top-degree part of ``e`` against the preset's pairing.

    Jacobian preset: only the coefficient of eta*theta^g survives, scaled by
    the normalization g!.  Elements containing c_i or k are refused (they
    take the Brill-Noether evaluator).  Surface preset: degree-2 monomials
    evaluate through the pairing table.
    """
    p = e.preset
    if p.kind == JACOBIAN:
        if any(any(m[TAUTOLOGICAL]) for m, _ in e.terms):
            raise RingDomainError(
                "element contains tautological Chern classes or the kernel class;"
                " use the Brill-Noether evaluator (bn.evaluate_taut)"
            )
        g = p.param("g")
        target = [0] * len(p.names)
        target[ETA] = 1
        target[THETA] = g
        return e.coefficient(tuple(target)) * math.factorial(g)
    if p.kind == SURFACE:
        table = dict(p.pairings)
        total = ZERO
        for m, c in e.terms:
            if p.monomial_degree(m) == 2:
                total += c * table[m]
        return total
    raise RingDomainError(
        "no integration rule on this preset; use pushforward_relative"
    )


def adjunction_genus(t: RingElem) -> int:
    """Arithmetic genus 1 + (t^2 + t.K)/2 of a degree-1 class on the surface."""
    if t.preset.kind != SURFACE:
        raise RingDomainError("adjunction is defined on the surface preset")
    if t.is_zero() or not t.is_homogeneous() or t.degree() != 1:
        raise RingDomainError("adjunction needs a nonzero degree-1 curve class")
    canonical = surface_canonical_class(t.preset)
    value = 1 + (integrate(t * t) + integrate(t * canonical)) / 2
    if value.denominator != 1:
        raise RingDomainError(
            f"non-integral adjunction genus {format_scalar(value)}: invalid curve class"
        )
    return int(value)


def pushforward_relative(e: RingElem, g: int) -> Fraction:
    """Push a fiber-degree-2 class down the universal curve.

    Rules: omega^2 -> 12*lambda, omega*lambda -> (2g-2)*lambda, and
    lambda^2 -> 0 (a pulled-back square has no fiber degree).  The returned
    rational is the lambda-coefficient of the push-forward.
    """
    p = e.preset
    if p.kind != UNIVERSAL_CURVE:
        raise RingDomainError("relative push-forward acts on the universal-curve preset")
    total = ZERO
    for (omega_exp, lambda_exp), coeff in e.terms:
        if omega_exp + lambda_exp != 2:
            raise RingDomainError(
                "relative push-forward needs fiber-degree 2; got a monomial of"
                f" degree {omega_exp + lambda_exp}"
            )
        if omega_exp == 2:
            total += 12 * coeff
        elif omega_exp == 1:
            total += (2 * g - 2) * coeff
        # lambda^2 pushes to zero
    return total


def geometric_series(x: RingElem) -> RingElem:
    """Sum_{j>=0} x^j; terminates because powers vanish by nilpotence."""
    if x.preset.top_degree is None:
        raise RingDomainError("geometric series needs a truncated preset")
    total = x.preset.one()
    power = x.preset.one()
    for _ in range(x.preset.top_degree + 2):
        power = power * x
        if power.is_zero():
            return total
        total = total + power
    raise RingDomainError("geometric series did not terminate: non-nilpotent argument")
