"""Closed-form numeric profiles: spin parity counts, boundary covering
degrees, Brill-Noether numbers, Riemann-Hurwitz ramification, theta-pencil
pairing profiles, the Scorza-curve genus and Mukai-model dimensions.
"""
from __future__ import annotations

from .errors import InternalCheckError, PreconditionError
from .record import Record
from .ring import adjunction_genus, preset_surface_product
from .scalars import as_scalar


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


class SpinCounts(Record):
    __slots__ = ("g", "n_even", "n_odd")

    @property
    def total(self) -> int:
        return self.n_even + self.n_odd


def theta_counts(g: int) -> SpinCounts:
    """Numbers of even and odd theta-characteristics in genus g."""
    if g < 1:
        raise PreconditionError("theta-characteristic counts need g >= 1")
    half = 2 ** (g - 1)
    return SpinCounts(g, half * (2 ** g + 1), half * (2 ** g - 1))


def boundary_degrees(g: int, i: int) -> tuple[int, int]:
    """Covering degrees of the two spin boundary components over delta_i.

    For i >= 1 these count pairs of opposite-parity theta-characteristics on
    the two sides of the node; over delta_0 the first component collects the
    square roots of the twisted canonical bundle and the second the odd
    theta-characteristics of the normalized genus g-1 curve.
    """
    if not 0 <= i <= g // 2:
        raise PreconditionError(f"boundary index {i} out of range 0..{g // 2}")
    if i == 0:
        return 2 ** (2 * g - 2), 2 ** (g - 2) * (2 ** (g - 1) - 1)
    deg_a = 2 ** (g - 2) * (2 ** i - 1) * (2 ** (g - i) + 1)
    deg_b = 2 ** (g - 2) * (2 ** i + 1) * (2 ** (g - i) - 1)
    return deg_a, deg_b


class RamificationCount(Record):
    __slots__ = ("value", "feasible")


def riemann_hurwitz_ram(g_source: int, g_target: int, degree: int) -> RamificationCount:
    """Ramification degree 2gs - 2 - degree(2gt - 2) of a covering.

    A negative value is reported as an infeasible covering rather than
    raised, since callers probe parameter ranges.
    """
    if g_source < 0 or g_target < 0 or degree < 1:
        raise PreconditionError("need nonnegative genera and degree >= 1")
    value = 2 * g_source - 2 - degree * (2 * g_target - 2)
    return RamificationCount(value, value >= 0)


def scorza_genus(g: int) -> int:
    """Genus of the Scorza correspondence of a general even spin curve.

    Deliberately computed through the ring engine (adjunction on the class
    (g-1)(F1+F2) + Delta inside the self-product surface) so that the
    closed form 3g(g-1) + 1 stays a cross-check rather than the
    implementation.
    """
    if g < 3:
        raise PreconditionError("Scorza genus needs g >= 3")
    preset = preset_surface_product(g)
    t = (g - 1) * (preset.gen("F1") + preset.gen("F2")) + preset.gen("Delta")
    value = adjunction_genus(t)
    closed_form = 3 * g * (g - 1) + 1
    if value != closed_form:
        raise InternalCheckError(
            f"adjunction genus {value} disagrees with the closed form {closed_form}"
        )
    return value


class ThetaPencilProfile(Record):
    """Pairing profile of the covering pencil cut out by theta hyperplanes
    on a polarized K3 surface, plus its discriminant bookkeeping; ``curve``
    is a ``picard.TestCurve``."""

    __slots__ = ("g", "curve", "discriminant_degree", "base_point_contacts",
                 "free_nodal_members", "decomposition_ok", "canonical_pairing")


def theta_pencil_profile(g: int) -> ThetaPencilProfile:
    """Pencil pairings (lambda: g+1, alpha_0: 4g+20, beta_0: g-1, rest 0).

    The discriminant of the pencil has degree 6g+18 and splits as twice the
    g-1 base-point contacts plus 4g+20 free nodal members.
    """
    from .picard import TestCurve, canonical_class, pair, spin_basis, SPIN

    if g < 3:
        raise PreconditionError("theta pencils need g >= 3")
    basis = spin_basis(g)
    pairing = {"lambda": as_scalar(g + 1), "alpha0": as_scalar(4 * g + 20),
               "beta0": as_scalar(g - 1)}
    assumed = tuple(
        name for name in basis.names
        if name not in pairing and name != "lambda"
    )
    curve = TestCurve.from_pairings("P", basis, pairing, assumed_zero=assumed)
    base_contacts = g - 1
    free_nodal = 4 * g + 20
    profile = ThetaPencilProfile(
        g=g,
        curve=curve,
        discriminant_degree=6 * g + 18,
        base_point_contacts=base_contacts,
        free_nodal_members=free_nodal,
        decomposition_ok=(2 * base_contacts + free_nodal == 6 * g + 18),
        canonical_pairing=pair(curve, canonical_class(SPIN, g)),
    )
    return profile


class MukaiProfile(Record):
    __slots__ = ("g", "dim_v", "n_g", "max_delta_dominant")


_MUKAI_DIMENSIONS = {7: 10, 8: 8, 9: 6, 10: 5}


def mukai_profile(g: int) -> MukaiProfile:
    """Dimension profile of the Mukai variety dominating genus-g curves."""
    if g not in _MUKAI_DIMENSIONS:
        raise PreconditionError("Mukai profiles exist for g in 7..10")
    dim_v = _MUKAI_DIMENSIONS[g]
    n_g = g + dim_v - 2
    return MukaiProfile(g, dim_v, n_g, dim_v - 1)
