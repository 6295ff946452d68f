"""Closed-form numeric profiles: spin parity counts, boundary covering
degrees, Brill-Noether numbers, the Scorza-curve genus and Mukai-model
dimensions.
"""
from __future__ import annotations

from .errors import InternalCheckError, PreconditionError
from .record import Record
from .ring import adjunction_genus, preset_surface_product
from .scalars import require_int


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    for name, given in zip("grd", (g, r, d)):
        require_int(name, given)
    return g - (r + 1) * (g - d + r)


class SpinCounts(Record):
    __slots__ = ("g", "n_even", "n_odd")

    @property
    def total(self) -> int:
        return self.n_even + self.n_odd


def theta_counts(g: int) -> SpinCounts:
    """Numbers of even and odd theta-characteristics in genus g."""
    require_int("g", g)
    if g < 1:
        raise PreconditionError("theta-characteristic counts need g >= 1")
    half = 2 ** (g - 1)
    return SpinCounts(g, half * (2 ** g + 1), half * (2 ** g - 1))


def boundary_degrees(g: int, i: int) -> tuple[int, int]:
    """Covering degrees of the two spin boundary components over delta_i.

    For i >= 1 these count pairs of opposite-parity theta-characteristics on
    the two sides of the node; over delta_0 the first component collects the
    square roots of the twisted canonical bundle and the second the odd
    theta-characteristics of the normalized genus g-1 curve.  Below genus 2
    the closed forms are not integers, so g < 2 is refused.
    """
    require_int("g", g)
    require_int("i", i)
    if g < 2:
        raise PreconditionError("boundary covering degrees need g >= 2")
    if not 0 <= i <= g // 2:
        raise PreconditionError(f"boundary index {i} out of range 0..{g // 2}")
    if i == 0:
        return 2 ** (2 * g - 2), 2 ** (g - 2) * (2 ** (g - 1) - 1)
    deg_a = 2 ** (g - 2) * (2 ** i - 1) * (2 ** (g - i) + 1)
    deg_b = 2 ** (g - 2) * (2 ** i + 1) * (2 ** (g - i) - 1)
    return deg_a, deg_b


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


class MukaiProfile(Record):
    __slots__ = ("g", "dim_v", "n_g", "max_delta_dominant")


_MUKAI_DIMENSIONS = {7: 10, 8: 8, 9: 6, 10: 5}


def mukai_profile(g: int) -> MukaiProfile:
    """Dimension profile of the Mukai variety dominating genus-g curves."""
    require_int("g", g)
    if g not in _MUKAI_DIMENSIONS:
        raise PreconditionError("Mukai profiles exist for g in 7..10")
    dim_v = _MUKAI_DIMENSIONS[g]
    n_g = g + dim_v - 2
    return MukaiProfile(g, dim_v, n_g, dim_v - 1)
