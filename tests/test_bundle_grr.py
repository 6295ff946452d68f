"""Independent re-derivation of the six multiplication-bundle Chern classes.

The bundles A2 and B2 push squares of a degree-14 Poincare bundle down the
extra curve factor (twisted by minus twice the diagonal, respectively minus
the diagonal and a fixed point).  Riemann-Roch for that projection only
needs the exterior calculus of the three-factor space
curve x curve x Jacobian, which this test implements from scratch on six
generators: the two point classes, theta, and the three mixed classes.
The pushed-down Chern classes must equal the recorded ones used by the
pipeline.
"""
import math
from fractions import Fraction

import pytest

from oddspin.genus12 import SIDE_X, SIDE_Y, context, side

G = 11
D = 14

# generator order: eta_t, eta_y, theta, mix_tP, mix_ty, mix_yP
N = 6
ETA_T, ETA_Y, THETA, MIX_TP, MIX_TY, MIX_YP = range(N)


def _mono(**exps):
    vec = [0] * N
    names = {"eta_t": ETA_T, "eta_y": ETA_Y, "theta": THETA,
             "mix_tp": MIX_TP, "mix_ty": MIX_TY, "mix_yp": MIX_YP}
    for key, e in exps.items():
        vec[names[key]] = e
    return tuple(vec)


def _normalize(terms):
    out = {}
    stack = list(terms.items())
    while stack:
        mono, coeff = stack.pop()
        if coeff == 0:
            continue
        m = list(mono)
        if m[ETA_T] >= 2 or m[ETA_Y] >= 2:
            continue
        # a point class kills every mixed class touching its factor
        if m[ETA_T] and (m[MIX_TP] or m[MIX_TY]):
            continue
        if m[ETA_Y] and (m[MIX_YP] or m[MIX_TY]):
            continue
        if m[MIX_TP] >= 2:
            m[MIX_TP] -= 2
            m[ETA_T] += 1
            m[THETA] += 1
            stack.append((tuple(m), -2 * coeff))
            continue
        if m[MIX_YP] >= 2:
            m[MIX_YP] -= 2
            m[ETA_Y] += 1
            m[THETA] += 1
            stack.append((tuple(m), -2 * coeff))
            continue
        if m[MIX_TY] >= 2:
            m[MIX_TY] -= 2
            m[ETA_T] += 1
            m[ETA_Y] += 1
            stack.append((tuple(m), -2 * G * coeff))
            continue
        if m[MIX_TP] and m[MIX_TY]:
            m[MIX_TP] -= 1
            m[MIX_TY] -= 1
            m[ETA_T] += 1
            m[MIX_YP] += 1
            stack.append((tuple(m), coeff))
            continue
        if m[MIX_TY] and m[MIX_YP]:
            m[MIX_TY] -= 1
            m[MIX_YP] -= 1
            m[ETA_Y] += 1
            m[MIX_TP] += 1
            stack.append((tuple(m), coeff))
            continue
        key = tuple(m)
        out[key] = out.get(key, Fraction(0)) + coeff
        if out[key] == 0:
            del out[key]
    return out


def _mul(a, b):
    raw = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            raw[key] = raw.get(key, Fraction(0)) + c1 * c2
    return _normalize(raw)


def _add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _scale(s, p):
    return {m: Fraction(s) * c for m, c in p.items()}


ONE = {_mono(): Fraction(1)}


def _exp(x, cap=4):
    total = dict(ONE)
    power = dict(ONE)
    for n in range(1, cap + 1):
        power = _mul(power, x)
        if not power:
            break
        total = _add(total, _scale(Fraction(1, math.factorial(n)), power))
    return total


def _push_first_factor(p):
    """Integrate over the t-curve: keep the eta_t coefficient, drop
    monomials with an unpaired odd class on that factor.  The result is
    re-embedded in the same six-generator ring (with the t-slots empty)."""
    out = {}
    for mono, coeff in p.items():
        if mono[ETA_T] != 1 or mono[MIX_TP] or mono[MIX_TY]:
            continue
        key = _mono(eta_y=mono[ETA_Y], theta=mono[THETA], mix_yp=mono[MIX_YP])
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def _degree(mono):
    return sum(mono)


def _pushed_chern(c1_upstairs):
    """ch then c of the push-down of a line bundle class, through
    Riemann-Roch with Todd factor 1 - (g-1) eta_t."""
    todd = _add(ONE, _scale(-(2 * G - 2) // 2, {_mono(eta_t=1): Fraction(1)}))
    pushed = _push_first_factor(_mul(_exp(c1_upstairs), todd))
    rank = pushed.pop(_mono())
    by_degree = {1: {}, 2: {}, 3: {}}
    for mono, coeff in pushed.items():
        by_degree[_degree(mono)][mono] = coeff
    ch1, ch2, ch3 = by_degree[1], by_degree[2], by_degree[3]
    c1 = ch1
    c2 = _scale(Fraction(1, 2), _add(_mul(ch1, ch1), _scale(-2, ch2)))
    c3 = _add(
        _scale(2, ch3),
        _scale(Fraction(1, 3), _add(_scale(3, _mul(c1, c2)), _scale(-1, _mul(c1, _mul(c1, c1))))),
    )
    return rank, c1, c2, c3


def _downstairs(elem):
    """Map an engine element in (eta, gamma, theta) onto the model's
    (eta_y, theta, mix_yP) coordinates for comparison."""
    preset = context().preset
    e_i, g_i, t_i = preset.index("eta"), preset.index("gamma"), preset.index("theta")
    out = {}
    for mono, coeff in elem.terms:
        assert not any(mono[3:]), "bundle classes contain no tautological c's"
        key = _mono(eta_y=mono[e_i], theta=mono[t_i], mix_yp=mono[g_i])
        out[key] = coeff
    return out


DIAGONAL = _add(
    {_mono(eta_t=1): Fraction(1)},
    {_mono(eta_y=1): Fraction(1)},
    {_mono(mix_ty=1): Fraction(1)},
)
POINCARE = _add(
    {_mono(eta_t=1): Fraction(D)},
    {_mono(mix_tp=1): Fraction(1)},
)
FIXED_POINT = {_mono(eta_t=1): Fraction(1)}


def test_diagonal_self_intersection_in_the_model():
    square = _mul(DIAGONAL, DIAGONAL)
    assert square == {_mono(eta_t=1, eta_y=1): Fraction(2 - 2 * G)}


@pytest.mark.parametrize(
    "name, twist",
    [("A2", _scale(-2, DIAGONAL)), ("B2", _add(_scale(-1, DIAGONAL), _scale(-1, FIXED_POINT)))],
)
def test_multiplication_bundle_chern_classes_by_riemann_roch(name, twist):
    c1_upstairs = _add(_scale(2, POINCARE), twist)
    rank, c1, c2, c3 = _pushed_chern(c1_upstairs)
    assert rank == 16
    recorded = side({"A2": SIDE_X, "B2": SIDE_Y}[name]).bundle
    assert recorded.name == name
    assert c1 == _downstairs(recorded.c1)
    assert c2 == _downstairs(recorded.c2)
    assert c3 == _downstairs(recorded.c3)
