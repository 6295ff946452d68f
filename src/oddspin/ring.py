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
  classes F1, F2 and the diagonal Delta.  Monomials above degree 2 are
  dropped.
* ``universal-curve``: the universal spin curve, generated by the relative
  dualizing class omega and the pulled-back Hodge class lambda; it has no
  relations.

Monomials are exponent vectors over the preset's fixed generator order.
Representation.  An element holds ``(monomial, int)`` numerators over one
denominator in the canonical form of ``scalars``, with the monomials
normalized, sorted in decreasing order and kept only for a nonzero
numerator.  Arithmetic inside the ring, and rendering, work on integers
only; a ``Fraction`` is built where a value leaves the ring:
``coefficient``, the ``terms`` view and ``integrate``.

Normalisation happens in one kernel, ``_normalize``, called by products,
by ``element`` (times 1) and by a one-term power (its scaled monomial times
1).  Sums, negation and constant factors keep their operands' normalized
monomials.

Integration, fixed once for the whole package, is one rule: a preset's
``pairings`` table maps each normalized top-degree monomial to its value,
``integrate`` sums every term times its entry, and a term with no entry
(another degree, a Chern class or k) is refused.  The tables:

* ``jacobian``: eta*theta^g -> g! (the classical Poincare normalization),
  gamma*theta^g -> 0 and theta^(g+1) -> 0;
* ``surface``: F1.F2 = Delta.F1 = Delta.F2 = 1, F1^2 = F2^2 = 0 and
  Delta^2 = 2 - 2g;
* ``universal-curve``: the relative push-forward to the lambda coefficient,
  omega^2 -> 12, omega*lambda -> 2g - 2 and lambda^2 -> 0 (a pulled-back
  square has no fiber degree).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add, mul

from .errors import PreconditionError, PresetMismatchError, RingDomainError
from .record import Record, memo, set_field
from .scalars import ZERO, format_scalar, over_lcm, ratio, render_terms, require_int

JACOBIAN = "jacobian"
SURFACE = "surface"
UNIVERSAL_CURVE = "universal-curve"

Monomial = tuple[int, ...]

# Generator layout of the jacobian preset, known only inside this module:
# eta, gamma, theta on the curve x Jacobian factor, then the Chern classes
# c_1..c_{r+1} from _C1 on, then the kernel class k.  Other modules address
# generators by name (``RingPreset.index``).
_ETA, _GAMMA, _THETA, _C1 = 0, 1, 2, 3


class RingPreset(Record):
    """A ring preset: generator names and degrees, the truncation degree
    and the defining parameters; ``pairings`` derives its top-degree table."""

    __slots__ = ("label", "kind", "names", "degrees", "top_degree", "params")

    # -- bookkeeping -------------------------------------------------
    @property
    def pairings(self) -> dict[Monomial, int]:
        """The top-degree table that ``integrate`` reads, monomial -> value.
        It is built on each read, not with the preset: the Jacobian entry g!
        is costly for a large g that is never integrated."""
        return _PAIRINGS[self.kind](self)

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise RingDomainError(f"no parameter {name!r} in preset {self.label}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RingDomainError(f"no generator {name!r} in preset {self.label}") from None

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.degrees))

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
        return RingElem(self, (), 1)

    # 1 and a lone generator are in normal form: no relation rewrites them,
    # and no truncation drops them (jacobian: eta, gamma, theta degree above
    # g + 1 >= 2; surface: degree above 2; universal-curve: none)
    def one(self) -> "RingElem":
        return RingElem(self, (((0,) * len(self.names), 1),), 1)

    def monomial(self, name: str) -> Monomial:
        """The exponent vector of the generator ``name``."""
        mono = [0] * len(self.names)
        mono[self.index(name)] = 1
        return tuple(mono)

    def gen(self, name: str) -> "RingElem":
        return RingElem(self, ((self.monomial(name), 1),), 1)

    def element(self, terms: Mapping[Monomial, object]) -> "RingElem":
        """The element with the given int or Fraction coefficients."""
        numerators, den = over_lcm(terms.values())
        return _reduced(self, _normalize(self, zip(terms, numerators), _unit(len(self.names))),
                        den)

    def weighted_sum(self, pairs: Iterable[tuple[int | Fraction, "RingElem"]]) -> "RingElem":
        """The sum of ``weight * elem`` over (int or Fraction weight, elem)
        pairs, read once, accumulated in one dict of integers over the lcm of
        the products weight denominator * elem denominator, then reduced."""
        scaled, dens = [], []
        for weight, elem in pairs:
            _require_preset(self, elem)
            num, den = ratio(weight)
            if num:
                den *= elem.denominator
                scaled.append((num, den, elem))
                if den != 1:
                    dens.append(den)
        den = math.lcm(*dens)
        acc: dict[Monomial, int] = {}
        for num, elem_den, elem in scaled:
            scale = num * (den // elem_den)
            for mono, n in elem.numerators:
                if total := acc.get(mono, 0) + scale * n:
                    acc[mono] = total
                else:
                    del acc[mono]
        return _reduced(self, acc, den)


def _require_preset(preset: RingPreset, elem: "RingElem") -> None:
    if elem.preset is not preset and elem.preset != preset:  # `is`: no __eq__ call
        raise PresetMismatchError(
            f"operands live in different presets: {preset.label} vs {elem.preset.label}"
        )


def _normalize(preset: RingPreset, left: Iterable[tuple[Monomial, int]],
               right: tuple[tuple[Monomial, int], ...]) -> dict:
    """Sum ``n1 * n2`` times ``m1 * m2`` over every pair of (monomial, int)
    terms of ``left`` and ``right`` into normal form.  On the jacobian preset
    a pair is judged by its eta, gamma and theta exponents, so a product that
    the closed form or the truncation drops is never built."""
    acc: dict[Monomial, int] = {}
    top = preset.top_degree
    if preset.kind == JACOBIAN:
        for m1, n1 in left:
            eta1, gamma1, theta1 = m1[_ETA], m1[_GAMMA], m1[_THETA]
            for m2, n2 in right:
                eta, gamma, theta = eta1 + m2[_ETA], gamma1 + m2[_GAMMA], theta1 + m2[_THETA]
                if eta + gamma + theta > top:  # the closed form keeps this degree
                    continue
                if eta + gamma < 2:
                    mono, coeff = tuple(map(add, m1, m2)), n1 * n2
                elif eta or gamma != 2:
                    continue
                else:  # gamma^2 = -2*eta*theta
                    mono = (1, 0, theta + 1) + tuple(map(add, m1[_C1:], m2[_C1:]))
                    coeff = -2 * n1 * n2
                if total := acc.get(mono, 0) + coeff:
                    acc[mono] = total
                else:
                    acc.pop(mono, None)
        return acc
    degree = preset.monomial_degree
    for m1, n1 in left:
        for m2, n2 in right:
            mono = tuple(map(add, m1, m2))
            if top is not None and degree(mono) > top:
                continue
            if total := acc.get(mono, 0) + n1 * n2:
                acc[mono] = total
            else:
                acc.pop(mono, None)
    return acc


@memo
def _unit(size: int) -> tuple[tuple[Monomial, int]]:
    """The one term of 1: the kernel's right operand for a single factor."""
    return (((0,) * size, 1),)


def _scaled(elem: "RingElem", num: int, den: int) -> "RingElem":
    """``elem * num / den`` for a positive ``den``.  The normal form is
    linear, so the monomials and their order stay; only the content is
    divided out."""
    if not num:
        return elem.preset.zero()
    terms, den = elem.numerators, den * elem.denominator
    content = math.gcd(den, num * math.gcd(*[n for _, n in terms])) if den != 1 else 1
    return RingElem(elem.preset, tuple([(m, n * num // content) for m, n in terms]),
                    den // content)


def _reduced(preset: RingPreset, acc: dict, den: int) -> "RingElem":
    """The canonical element ``sum(acc) / den``, for ``acc`` a map from
    monomials to nonzero ints and ``den`` positive: the content is divided
    out and the terms are sorted."""
    if not acc:
        return RingElem(preset, (), 1)
    if den != 1:
        content = math.gcd(den, *acc.values())
        if content != 1:
            den //= content
            acc = {m: n // content for m, n in acc.items()}
    return RingElem(preset, tuple(sorted(acc.items(), reverse=True)), den)


class RingElem(Record):
    """Sparse normalized element of a ring preset.  Immutable.

    ``numerators`` holds (monomial, int) pairs over the positive int
    ``denominator``, in the canonical form of the module docstring.
    """

    __slots__ = ("preset", "numerators", "denominator")

    reduced = staticmethod(_reduced)  # sum(acc) / den in canonical form
    scaled = _scaled  # self * num / den for a positive den

    def __init__(self, preset: RingPreset, numerators: tuple[tuple[Monomial, int], ...],
                 denominator: int):
        set_field(self, "preset", preset)
        set_field(self, "numerators", numerators)
        set_field(self, "denominator", denominator)

    # -- inspection ---------------------------------------------------
    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """The (monomial, Fraction coefficient) pairs, in decreasing monomial order."""
        den = self.denominator
        return tuple((m, Fraction(n, den)) for m, n in self.numerators)

    def coefficient(self, mono: Monomial) -> Fraction:
        for m, n in self.numerators:
            if m == mono:
                return Fraction(n, self.denominator)
        return ZERO

    def is_zero(self) -> bool:
        return not self.numerators

    def generators(self) -> set[str]:
        """The names of the generators that occur in some term."""
        columns = zip(*(m for m, _ in self.numerators))
        return {name for name, column in zip(self.preset.names, columns) if any(column)}

    def degree(self) -> int | None:
        if not self.numerators:
            return None
        return max(self.preset.monomial_degree(m) for m, _ in self.numerators)

    def is_homogeneous(self) -> bool:
        degrees = {self.preset.monomial_degree(m) for m, _ in self.numerators}
        return len(degrees) <= 1

    def homogeneous_part(self, degree: int) -> "RingElem":
        kept = {m: n for m, n in self.numerators if self.preset.monomial_degree(m) == degree}
        return _reduced(self.preset, kept, self.denominator)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other, sign: int = 1):
        """self + sign * other, for a ring element or an int or Fraction."""
        if isinstance(other, RingElem):
            return self.preset.weighted_sum(((1, self), (sign, other)))
        if isinstance(other, (int, Fraction)):
            return self.preset.weighted_sum(((1, self), (sign * other, self.preset.one())))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.preset, tuple((m, -n) for m, n in self.numerators), self.denominator)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RingElem):
            _require_preset(self.preset, other)
            # a constant factor scales the other operand
            if len(other.numerators) == 1 and not any(other.numerators[0][0]):
                return _scaled(self, other.numerators[0][1], other.denominator)
            if len(self.numerators) == 1 and not any(self.numerators[0][0]):
                return _scaled(other, self.numerators[0][1], self.denominator)
            return _reduced(self.preset, _normalize(self.preset, self.numerators, other.numerators),
                            self.denominator * other.denominator)
        if isinstance(other, (int, Fraction)):
            return _scaled(self, *ratio(other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise RingDomainError("ring exponents are nonnegative integers")
        if len(self.numerators) == 1:
            # the normal form is a ring homomorphism, so a monomial's power is
            # its exponent vector times n, normalised once; a truncated power
            # is dropped before its coefficient is raised
            ((mono, num),) = self.numerators
            power = _reduced(self.preset, _normalize(
                self.preset, ((tuple(n * e for e in mono), 1),), _unit(len(mono))), 1)
            return _scaled(power, num ** n, self.denominator ** n) if power.numerators else power
        if n == 0:
            return self.preset.one()
        # square and multiply from the base, leading bit first: (bit_length - 1)
        # squarings and (popcount - 1) products by the base
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- rendering ----------------------------------------------------
    def render(self) -> str:
        return render_terms(
            [(self.preset.monomial_text(m), n) for m, n in self.numerators], self.denominator
        )

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_jacobian_product(g: int, d: int, r: int) -> RingPreset:
    """Cohomology preset for curve x Pic^d with a rank r+1 tautological bundle."""
    for name, given in zip("gdr", (g, d, r)):
        require_int(name, given)
    if g < 1 or d < 0 or r < 0:
        raise PreconditionError(
            f"jacobian preset needs g >= 1, d >= 0, r >= 0 (got g={g}, d={d}, r={r})"
        )
    # in the order of the layout constants: eta, gamma, theta, c1..c_{r+1}, k
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
    require_int("g", g)
    if g < 2:
        raise PreconditionError(f"surface preset needs g >= 2 (got g={g})")
    return RingPreset(
        label=f"surface(g={g})",
        kind=SURFACE,
        names=("F1", "F2", "Delta"),
        degrees=(1, 1, 1),
        top_degree=2,
        params=(("g", g),),
    )


def preset_universal_curve(g: int) -> RingPreset:
    """Preset for the universal curve: omega over the Hodge class lambda."""
    require_int("g", g)
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


# The top-degree pairing tables of the module docstring, by preset kind.
def _jacobian_pairings(p: RingPreset) -> dict[Monomial, int]:
    g, rest = p.param("g"), (0,) * (len(p.names) - 3)
    return {(1, 0, g) + rest: math.factorial(g), (0, 1, g) + rest: 0, (0, 0, g + 1) + rest: 0}


def _surface_pairings(p: RingPreset) -> dict[Monomial, int]:
    return {(2, 0, 0): 0, (1, 1, 0): 1, (1, 0, 1): 1,
            (0, 2, 0): 0, (0, 1, 1): 1, (0, 0, 2): 2 - 2 * p.param("g")}


def _universal_curve_pairings(p: RingPreset) -> dict[Monomial, int]:
    return {(2, 0): 12, (1, 1): 2 * p.param("g") - 2, (0, 2): 0}


_PAIRINGS = {JACOBIAN: _jacobian_pairings, SURFACE: _surface_pairings,
             UNIVERSAL_CURVE: _universal_curve_pairings}


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
    """Sum each term of ``e`` times its entry in the preset's top-degree
    pairing table (see the module docstring).

    A term with no entry is refused: it has another degree, or it contains
    a Chern class or k, which take the Brill-Noether evaluator
    (``bn.evaluate_taut``).
    """
    p = e.preset
    table = p.pairings
    total = 0
    for mono, num in e.numerators:
        if mono not in table:
            raise RingDomainError(
                f"no top-degree pairing for {p.monomial_text(mono) or '1'} on {p.label}"
            )
        total += num * table[mono]
    return Fraction(total, e.denominator)


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
