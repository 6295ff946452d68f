import math
import operator
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspin.errors import (
    BasisMismatchError,
    PreconditionError,
    UndefinedSlopeError,
)
from oddspin import linalg, picard
from oddspin.exprparse import expr_to_class, parse_expression
from oddspin.linalg import solve_over_lcm
from oddspin.numerics import boundary_degrees, theta_counts
from oddspin.picard import (
    MODULI,
    SPIN,
    DivisorClass,
    bn_divisor_class,
    bn_divisor_exists,
    canonical_class,
    certificate,
    combine,
    covering_degree,
    degenerate_theta_lambda_coefficient,
    moduli_basis,
    pair,
    pullback,
    pushforward,
    slope,
    solve_zg,
    spin_basis,
    theta_pencil_profile,
    zg_class,
)
from oddspin.picard import test_curve as boundary_curve
from oddspin.ring import preset_universal_curve

from oracles import model_add, model_scale


# -- pullback / pushforward -------------------------------------------------

def test_a_class_prints_as_its_rendering():
    cls = zg_class(5) - Fraction(1, 3) * canonical_class(SPIN, 5)
    assert str(cls) == cls.render() != ""


def test_pullback_of_delta0():
    d0 = DivisorClass.from_mapping(moduli_basis(7), {"delta0": 1})
    up = pullback(7, d0)
    assert up == DivisorClass.from_mapping(spin_basis(7), {"alpha0": 1, "beta0": 2})


def test_pullback_linearity_zero():
    zero = DivisorClass.from_mapping(moduli_basis(5), {})
    assert pullback(5, zero).is_zero()


def test_canonical_class_branch_relation():
    for g in range(3, 17):
        spin_k = canonical_class(SPIN, g)
        branch = DivisorClass.from_mapping(spin_basis(g), {"beta0": 1})
        assert spin_k == pullback(g, canonical_class(MODULI, g)) + branch


def test_canonical_class_is_built_and_checked_once_per_genus(monkeypatch, cold_memos):
    from oddspin.cli import run_command

    checked = []
    unchecked_pullback = picard.pullback

    def recording(g, c):
        if c == canonical_class(MODULI, g):
            checked.append(g)
        return unchecked_pullback(g, c)

    monkeypatch.setattr(picard, "pullback", recording)
    genera = range(13, 31)
    for _ in range(2):
        for g in genera:
            assert run_command(["cert", "--g", str(g), "--aux", "bn"]).exit_code == 0
            assert run_command(["numbers", "--g", str(g)]).exit_code == 0
    assert checked == list(genera)


def test_class_arithmetic_and_pullback_build_no_fraction(fraction_builds):
    g = 9
    a = DivisorClass.from_mapping(moduli_basis(g), {
        "lambda": Fraction(13, 6), "delta0": Fraction(-7, 4), "delta3": 5})
    b = bn_divisor_class(g)
    z = zg_class(g)
    weight, combo_weights = Fraction(-2, 7), (Fraction(1, 3), -2)
    with fraction_builds() as built:
        total, difference, negated = a + b, a - b, -a
        tripled, scaled = 3 * a, weight * a
        combo = combine([a, b], combo_weights)
        up, down = pullback(g, a), pushforward(g, z)
        cancelled = (a - a, up - up)
        rendered = (total.render(), down.coefficients_by_name())
    assert built == []
    # against the same arithmetic on Fraction coefficients
    assert total.coefficients == tuple(x + y for x, y in zip(a.coefficients, b.coefficients))
    assert difference.coefficients == tuple(
        x - y for x, y in zip(a.coefficients, b.coefficients))
    assert negated.coefficients == tuple(-x for x in a.coefficients)
    assert tripled.coefficients == tuple(3 * x for x in a.coefficients)
    assert scaled.coefficients == tuple(weight * x for x in a.coefficients)
    assert combo.coefficients == tuple(
        Fraction(1, 3) * x - 2 * y for x, y in zip(a.coefficients, b.coefficients))
    # bn = 12*lambda - 5/3*delta0 - sum i(9-i)*delta_i
    assert (total.numerators, total.denominator) == (
        (170, -41, -96, -168, -156, -240), 12)
    assert up == DivisorClass.from_mapping(spin_basis(g), {
        "lambda": Fraction(13, 6), "alpha0": Fraction(-7, 4), "beta0": Fraction(-7, 2),
        "alpha3": 5, "beta3": 5})
    assert all(c.is_zero() and c.denominator == 1 for c in cancelled)
    assert rendered[0] == (
        "85/6*lambda - 41/12*delta0 - 8*delta1 - 14*delta2 - 13*delta3 - 20*delta4")
    assert rendered[1] == pushforward(g, z).coefficients_by_name()


# -- class arithmetic against one Fraction per coefficient ------------------
# A model class is a dict {generator name: nonzero Fraction}.

MODEL_BASES = (spin_basis(3), moduli_basis(3), moduli_basis(8), spin_basis(10))

rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9)))
class_weights = st.sampled_from((0, 1, -1)) | st.integers(-9, 9) | rationals


@st.composite
def class_cases(draw):
    basis = draw(st.sampled_from(MODEL_BASES))
    coefficients = rationals | st.integers(-5, 5)
    mappings = [draw(st.dictionaries(st.sampled_from(basis.names), coefficients))
                for _ in range(3)]
    combo_weights = draw(st.lists(class_weights, min_size=3, max_size=3))
    return basis, mappings, draw(class_weights), combo_weights, draw(st.sampled_from(MODEL_BASES))


def _class_agrees(cls, model):
    """Assert that ``cls`` is canonical and has the model's coefficients."""
    den, nums = cls.denominator, cls.numerators
    assert den > 0 and math.gcd(den, *nums) == 1
    assert all(isinstance(n, int) for n in nums)
    assert cls.coefficients == tuple(model.get(name, 0) for name in cls.basis.names)
    rebuilt = DivisorClass.from_mapping(cls.basis, model)
    assert rebuilt == cls and hash(rebuilt) == hash(cls)
    reparsed = expr_to_class(parse_expression(cls.render(), cls.basis), cls.basis)
    assert reparsed == cls and hash(reparsed) == hash(cls)


@settings(max_examples=150, deadline=None)
@given(class_cases())
def test_class_arithmetic_matches_the_fraction_model(case):
    basis, mappings, scalar, combo_weights, other_basis = case
    a, b, c = (DivisorClass.from_mapping(basis, m) for m in mappings)
    ma, mb, mc = ({name: Fraction(v) for name, v in m.items() if v} for m in mappings)
    for cls, model in ((a, ma), (b, mb), (c, mc)):
        _class_agrees(cls, model)
    _class_agrees(a + b, model_add(ma, mb))
    _class_agrees(a - b, model_add(ma, mb, -1))
    _class_agrees(-a, model_scale(ma, -1))
    for s in (scalar, 0, 3, Fraction(-2, 7)):
        _class_agrees(s * a, model_scale(ma, s))
        _class_agrees(a * s, model_scale(ma, s))
    x, y, z = combo_weights
    expected = model_add(model_add(model_scale(ma, x), model_scale(mb, y)), model_scale(mc, z))
    _class_agrees(combine([a, b, c], combo_weights), expected)
    _class_agrees(DivisorClass.weighted_sum(basis, zip(combo_weights, (a, b, c))), expected)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    if other_basis != basis:
        stranger = DivisorClass.from_mapping(other_basis, {"lambda": 1})
        message = f"classes live in different bases: {basis.label} vs {other_basis.label}"
        for refused in (lambda: a + stranger, lambda: a - stranger,
                        lambda: combine([a, stranger], [1, 1]),
                        lambda: DivisorClass.weighted_sum(basis, [(0, a), (2, stranger)])):
            with pytest.raises(BasisMismatchError, match=re.escape(message)):
                refused()


@pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "a", None],
                         ids=["int", "Fraction", "float", "str", "None"])
@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_a_non_class_operand_gives_a_type_error(op, other):
    # a class returns NotImplemented as a ring element does, so Python raises
    # the TypeError from either side; a class has no constant part, so a
    # number is refused too where a ring element would take it
    cls, elem = zg_class(5), preset_universal_curve(3).gen("omega")
    for left, right in ((cls, other), (other, cls)):
        with pytest.raises(TypeError):
            op(left, right)
    if not isinstance(other, (int, Fraction)):
        for left, right in ((elem, other), (other, elem)):
            with pytest.raises(TypeError):
                op(left, right)


def test_pushforward_of_degenerate_theta_class_genus3():
    down = pushforward(3, zg_class(3))
    assert down == DivisorClass.from_mapping(
        moduli_basis(3), {"lambda": 308, "delta0": -32, "delta1": -76}
    )
    assert down.render() == "308*lambda - 32*delta0 - 76*delta1"


def test_projection_formula_with_power_of_two_oracle():
    rng = random.Random(2026)
    for g in range(3, 17):
        n = covering_degree(g)
        # oracle: expand the powers of two by hand
        assert n == 2 ** (g - 1) * (2 ** g - 1)
        for i in range(g // 2 + 1):
            deg_a, deg_b = boundary_degrees(g, i)
            if i == 0:
                assert deg_a + 2 * deg_b == n
            else:
                assert deg_a + deg_b == n
        basis = moduli_basis(g)
        coeffs = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for name in basis.names}
        cls = DivisorClass.from_mapping(basis, coeffs)
        assert pushforward(g, pullback(g, cls)) == n * cls


def test_pushforward_requires_spin_class():
    with pytest.raises(BasisMismatchError):
        pushforward(5, bn_divisor_class(5))


# -- named classes ----------------------------------------------------------

def test_canonical_spin_display():
    k = canonical_class(SPIN, 7)
    assert k == DivisorClass.from_mapping(
        spin_basis(7),
        {"lambda": 13, "alpha0": -2, "beta0": -3, "alpha1": -3, "beta1": -3,
         "alpha2": -2, "beta2": -2, "alpha3": -2, "beta3": -2},
    )


def test_zg_class_examples():
    z3 = zg_class(3)
    assert z3 == DivisorClass.from_mapping(
        spin_basis(3),
        {"lambda": 11, "alpha0": Fraction(-5, 4), "beta0": -2, "alpha1": -4,
         "beta1": -2},
    )
    assert zg_class(12).coefficient("lambda") == 20
    assert zg_class(4).bar("alpha2") == 4


def test_bn_divisor_class_genus13():
    cls = bn_divisor_class(13)
    expected = {"lambda": 16, "delta0": Fraction(-7, 3), "delta1": -12,
                "delta2": -22, "delta3": -30, "delta4": -36, "delta5": -40,
                "delta6": -42}
    assert cls == DivisorClass.from_mapping(moduli_basis(13), expected)


def test_bn_divisor_slope_formula():
    for g in (13, 15, 23, 29):
        assert slope(bn_divisor_class(g)) == 6 + Fraction(12, g + 1)
    assert slope(bn_divisor_class(23)) == Fraction(13, 2)


def test_bn_divisor_existence_flag():
    assert bn_divisor_exists(13)   # 14 composite
    assert not bn_divisor_exists(16)  # 17 prime
    assert not bn_divisor_exists(12)  # 13 prime


def test_bn_divisor_existence_on_prime_squares_and_primes():
    # g + 1 = p^2 is composite with its only nontrivial factor at sqrt(g + 1)
    for square in (4, 9, 25, 49, 121, 169):
        assert bn_divisor_exists(square - 1)
    for prime in (2, 3, 5, 7, 11, 13, 101, 10007):
        assert not bn_divisor_exists(prime - 1)


# -- test curves ------------------------------------------------------------

def test_curve_vectors():
    f0 = boundary_curve("F0", 7)
    # the nonzero pairings are stored; every other generator pairs to 0
    assert f0.pairings == ((0, 1), (1, 12), (2, -1))
    assert {name: f0.pairing(name) for name in f0.basis.names} == {
        "lambda": 1, "alpha0": 12, "alpha1": -1, "alpha2": 0, "alpha3": 0,
        "beta0": 0, "beta1": 0, "beta2": 0, "beta3": 0,
    }
    with pytest.raises(BasisMismatchError):
        f0.pairing("delta0")
    g0 = boundary_curve("G0", 7)
    assert g0.pairing("lambda") == 3
    assert g0.pairing("alpha0") == 12
    assert g0.pairing("beta0") == 12
    assert g0.pairing("beta1") == -3
    h0 = boundary_curve("H", 7)
    assert h0.pairing("beta0") == 1 - 7
    assert h0.pairing("beta1") == 1
    assert h0.assumed_zero == ("alpha2", "beta2", "alpha3", "beta3")
    f3 = boundary_curve("F", 7, 3)
    assert f3.pairing("alpha3") == -4
    c0 = boundary_curve("C0", 12)
    assert c0.pairing("delta0") == -22
    assert c0.pairing("delta1") == 1
    c1 = boundary_curve("C1", 12)
    assert c1.pairing("delta1") == -20
    r = boundary_curve("R", 12)
    assert (r.pairing("lambda"), r.pairing("delta0"), r.pairing("delta1")) == (1, 12, -1)


def test_curve_index_validation():
    with pytest.raises(PreconditionError):
        boundary_curve("F", 7, 4)
    with pytest.raises(PreconditionError):
        boundary_curve("G", 7, 0)
    with pytest.raises(PreconditionError):
        boundary_curve("F0", 7, 1)
    with pytest.raises(PreconditionError, match="curve P takes no index"):
        boundary_curve("P", 7, 1)
    with pytest.raises(PreconditionError, match="theta pencils need g >= 3"):
        boundary_curve("P", 2)


def test_theta_pencil_is_the_test_curve_p():
    p = boundary_curve("P", 7)
    assert theta_pencil_profile(7).curve == p
    assert (p.pairing("lambda"), p.pairing("alpha0"), p.pairing("beta0")) == (8, 48, 6)
    # every boundary generator but alpha_0 and beta_0 is zero-filled
    assert p.assumed_zero == ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3")


def test_classes_and_curves_share_the_name_to_vector_builder(monkeypatch):
    basis = spin_basis(5)
    # integer numerators over the least common denominator: the nonzero ones
    # by basis index, in basis order, and a class fills in the zeros
    mixed = {"beta1": 2, "lambda": Fraction(1, 3), "alpha0": Fraction(5, 6), "alpha2": 0}
    assert basis.entries(mixed) == (((0, 2), (1, 5), (5, 12)), 6)
    cls = DivisorClass.from_mapping(basis, mixed)
    assert (cls.numerators, cls.denominator) == ((2, 5, 0, 0, 0, 12, 0), 6)
    # exact values are ints and Fractions: a string is refused, "1e3" too
    uc = preset_universal_curve(3)
    for refused in ("1/3", "1e3"):
        with pytest.raises(TypeError, match="as an exact rational"):
            basis.entries({**mixed, "lambda": refused})
        with pytest.raises(TypeError, match="as an exact rational"):  # before the unknown name
            basis.entries({"delta0": 1, "lambda": refused})
        with pytest.raises(TypeError, match="as an exact rational"):
            DivisorClass.from_mapping(basis, {**mixed, "lambda": refused})
        with pytest.raises(TypeError, match="as an exact rational"):
            combine([zg_class(5)], [refused])
        with pytest.raises(TypeError, match="as an exact rational"):
            uc.element({(1, 0): refused})
    assert basis.entries({}) == ((), 1)
    assert DivisorClass.from_mapping(basis, {}).numerators == (0,) * 7
    mapping = {"lambda": 1, "alpha0": 12, "alpha1": -1}
    cls = DivisorClass.from_mapping(basis, mapping)
    curve = boundary_curve("F0", 5)
    assert (curve.pairings, 1) == basis.entries(mapping)
    # entry by entry: the curve's pairings are the class's numerators
    assert cls.denominator == 1
    assert [curve.pairing(name) for name in basis.names] == list(cls.numerators)
    assert dict(curve.pairings) == {j: n for j, n in enumerate(cls.numerators) if n}
    assert cls.coefficients == (1, 12, -1, 0, 0, 0, 0)
    # a name outside the basis is refused, with a zero coefficient too
    for bad in ({"delta0": 1}, {"delta0": 0}):
        with pytest.raises(BasisMismatchError):
            basis.entries(bad)
        with pytest.raises(BasisMismatchError):
            DivisorClass.from_mapping(basis, bad)
    # a curve meets every divisor in an integer
    monkeypatch.setitem(picard.TEST_CURVES, "F0",
                        (spin_basis, lambda g: {"lambda": Fraction(1, 2)}, None))
    with pytest.raises(PreconditionError, match="test curve F0 has a non-integer pairing"):
        boundary_curve("F0", 5)


def every_test_curve(g):
    """Every curve ``test_curve`` builds in genus g, each family index included."""
    for name in picard.TEST_CURVES:
        if name in picard.INDEXED_CURVES:
            yield from (boundary_curve(name, g, i) for i in range(1, g // 2 + 1))
        else:
            yield boundary_curve(name, g)


@pytest.mark.parametrize("g", [3, 7, 40])
def test_curves_store_only_their_nonzero_pairings(g):
    curves = list(every_test_curve(g))
    assert len(curves) == 7 + 2 * (g // 2)
    for curve in curves:
        indices = [j for j, _ in curve.pairings]
        assert indices == sorted(set(indices))
        assert all(type(v) is int and v != 0 for _, v in curve.pairings)
        assert len(curve.pairings) <= 4
        names = curve.basis.names
        assert {name: curve.pairing(name) for name in names if curve.pairing(name)} == {
            names[j]: v for j, v in curve.pairings}


def test_solve_zg_memory_grows_linearly_in_g():
    peaks = {}
    for g in (300, 600):
        solve_zg(g)  # the bases, the universal-curve preset and the caches warm
        tracemalloc.start()
        try:
            solve_zg(g)
            peaks[g] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # linear growth doubles the peak; a dense pairing tuple per curve made it 3.4x
    assert peaks[600] / peaks[300] < 2.5


def _linalg_line_events(call) -> int:
    """The number of lines run in ``oddspin/linalg.py`` frames during
    ``call()``: an operation count that does not depend on the host."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == linalg.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_solve_zg_elimination_work_grows_linearly_in_g():
    counts = {}
    for g in (2000, 4000, 8000):
        solve_zg(g)  # the bases, the preset and the closed-form class warm
        counts[g] = _linalg_line_events(lambda: solve_zg(g))
    # linear growth doubles the count; a scan of every row at every pivot
    # made it about 3.8x per doubling
    assert counts[4000] / counts[2000] < 2.5
    assert counts[8000] / counts[4000] < 2.5


def test_decomposition_ok_checks_the_pencil_table_entry(monkeypatch):
    assert theta_pencil_profile(7).decomposition_ok
    build_basis, rule, assumed = picard.TEST_CURVES["P"]

    def one_more_free_member(g):
        pairings = rule(g)
        return {**pairings, "alpha0": pairings["alpha0"] + 1}

    monkeypatch.setitem(picard.TEST_CURVES, "P", (build_basis, one_more_free_member, assumed))
    profile = theta_pencil_profile(7)
    assert (profile.free_nodal_members, profile.base_point_contacts) == (49, 6)
    assert not profile.decomposition_ok


def test_pair_requires_common_basis():
    with pytest.raises(BasisMismatchError):
        pair(boundary_curve("C0", 12), zg_class(12))


def test_moduli_curves_track_genus():
    # degree bookkeeping of the two moving-curve families in general genus
    for g in (8, 12, 15):
        assert boundary_curve("C0", g).pairing("delta0") == 2 - 2 * g
        assert boundary_curve("C1", g).pairing("delta1") == 4 - 2 * g


def test_basis_preconditions():
    with pytest.raises(PreconditionError):
        spin_basis(2)
    with pytest.raises(PreconditionError):
        moduli_basis(2)
    with pytest.raises(PreconditionError):
        zg_class(2)
    with pytest.raises(PreconditionError):
        canonical_class(SPIN, 2)
    with pytest.raises(PreconditionError):
        canonical_class("affine", 5)


# -- pairing identities -----------------------------------------------------

def test_family_pairings_against_degenerate_theta_class():
    for g in range(3, 17):
        z = zg_class(g)
        for i in range(1, g // 2 + 1):
            assert pair(boundary_curve("F", g, i), z) == 4 * (g - i) * (i - 1)
            assert pair(boundary_curve("G", g, i), z) == 4 * i * (i - 1)
        assert pair(boundary_curve("F0", g), z) == 0
        assert pair(boundary_curve("G0", g), z) == 0
        assert pair(boundary_curve("H", g), z) == 2 * (g - 2)
        assert pair(boundary_curve("F", g, 1), z) == 0


def test_prop_style_relation_at_solution():
    # lambda-bar - 12 alpha0-bar + alpha1-bar = 0 at the closed form
    for g in range(3, 17):
        z = zg_class(g)
        assert z.bar("lambda") - 12 * z.bar("alpha0") + z.bar("alpha1") == 0


def test_theta_pencil_canonical_pairing():
    for g in range(3, 31):
        profile = theta_pencil_profile(g)
        value = pair(profile.curve, canonical_class(SPIN, g))
        assert value == 2 * g - 24
        assert (value < 0) == (g <= 11)
    assert pair(theta_pencil_profile(10).curve, canonical_class(SPIN, 10)) == -4
    assert pair(theta_pencil_profile(12).curve, canonical_class(SPIN, 12)) == 0


# -- reconstruction ---------------------------------------------------------

def test_porteous_lambda_coefficient():
    for g in range(3, 31):
        assert degenerate_theta_lambda_coefficient(g) == g + 8


def test_solve_zg_full_rank_range():
    for g in range(3, 17):
        report = solve_zg(g)
        assert report.matches_closed_form
        if g == 5:
            assert report.degenerate and not report.full_rank
            assert report.fallback_consistent
            assert report.undetermined == ("beta0", "beta1")
        else:
            assert report.full_rank and not report.degenerate


def test_solve_zg_rows_are_sparse_and_the_solution_is_the_closed_form(monkeypatch):
    seen = []

    def recording(rows, n_cols, rhs):
        seen.append((rows, n_cols))
        return solve_over_lcm(rows, n_cols, rhs)

    monkeypatch.setattr(picard, "solve_over_lcm", recording)
    for g in range(3, 61):
        report = solve_zg(g)
        rows, n_cols = seen.pop()
        assert n_cols == len(spin_basis(g).names)
        # the sparse elimination relies on these short rows
        assert max(sum(1 for v in row.values() if v) for row in rows) <= 4
        assert report.matches_closed_form
        assert report.divisor_class == zg_class(g)
        assert report.degenerate == (g == 5)
    report = solve_zg(5)
    assert report.undetermined == ("beta0", "beta1")
    assert report.fallback_consistent


def test_solvers_work_in_raw_coefficients(monkeypatch):
    # bar reads results in the paper's notation; the solvers never call it
    def refuse(self, name):
        raise AssertionError("a solver negated a coefficient through bar")

    monkeypatch.setattr(DivisorClass, "bar", refuse)
    for g in (4, 5, 7):
        assert solve_zg(g).divisor_class == zg_class(g)
    assert certificate(13, "bn").verdict == "pass"
    assert certificate(12, "d12").verdict == "pass"


def _recorded_systems(monkeypatch):
    """A list that gets the (rows, rhs) of every ``solve_over_lcm`` call
    ``picard`` makes from then on: the Z_g systems of ``solve_zg``."""
    seen = []

    def recording(rows, n_cols, rhs):
        seen.append((rows, rhs))
        return solve_over_lcm(rows, n_cols, rhs)

    monkeypatch.setattr(picard, "solve_over_lcm", recording)
    return seen


def test_solve_zg_rows_are_the_stored_pairings(monkeypatch):
    seen = _recorded_systems(monkeypatch)
    for g in range(3, 61):
        report = solve_zg(g)
        (rows, rhs), = seen
        seen.clear()
        basis, m = spin_basis(g), g // 2
        assert report.row_labels == (
            "porteous-lambda", "family-F1-closed-form",
            *[f"family-F{i}" for i in range(2, m + 1)],
            *[f"family-G{i}" for i in range(2, m + 1)],
            "pencil-F0", "pencil-G0", "pencil-H0")
        by_label = dict(zip(report.row_labels, zip(rows, rhs)))
        assert by_label.pop("porteous-lambda") == ({basis.index("lambda"): 1}, g + 8)
        assert by_label.pop("family-F1-closed-form") == ({basis.index("alpha1"): 1}, -2 * (g - 1))
        for label, (row, value) in by_label.items():
            kind, name = label.split("-")
            curve = (boundary_curve(name[0], g, int(name[1:])) if kind == "family"
                     else boundary_curve(name, g))
            assert row == dict(curve.pairings)
            assert row == {basis.index(gen): curve.pairing(gen)
                           for gen in basis.names if curve.pairing(gen)}
            assert value == pair(curve, zg_class(g))
            assert set(curve.assumed_zero_labels()) <= set(report.assumptions)


def test_solve_zg_rows_follow_the_curve_table(monkeypatch):
    build_basis, rule, _ = picard.TEST_CURVES["G"]

    def doubled(g, i):
        return {name: 2 * value for name, value in rule(g, i).items()}

    monkeypatch.setitem(picard.TEST_CURVES, "G", (
        build_basis, doubled, lambda basis, pairings: ("lambda",)))
    seen = _recorded_systems(monkeypatch)
    report = solve_zg(9)
    (rows, rhs), = seen
    by_label = dict(zip(report.row_labels, rows))
    beta3 = spin_basis(9).index("beta3")
    assert by_label["family-G3"] == {beta3: -8} == dict(boundary_curve("G", 9, 3).pairings)
    assert {"G2:lambda", "G3:lambda", "G4:lambda"} <= set(report.assumptions)
    # the family's right-hand side is unchanged, so beta_3 solves to half its value
    assert report.divisor_class.coefficient("beta3") == zg_class(9).coefficient("beta3") / 2


def test_solve_zg_builds_at_most_three_fractions(fraction_builds):
    # at e4b4516 solve_zg(40) built 46: one per unknown in the solution of
    # solve_linear, turned at once back into numerators; the three left are
    # the Porteous lambda coefficient's
    for g in range(3, 41):
        solve_zg(g)  # the bases and the closed form are built and cached
        with fraction_builds() as built:
            report = solve_zg(g)
        assert report.matches_closed_form
        assert len(built) <= 3, g


def test_solve_zg_builds_at_most_three_test_curves_per_genus(monkeypatch):
    built = []
    init = picard.TestCurve.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(picard.TestCurve, "__init__", counting)
    boundary_curve("F", 7, 2)
    assert len(built) == 1
    for g in range(3, 41):
        built.clear()
        solve_zg(g)
        assert len(built) <= 3


def test_solve_zg_genus7_hand_elimination_oracle():
    # oracle: eliminate by stages exactly as the row structure allows
    g = 7
    lam = Fraction(g + 8)
    alpha = {i: Fraction(2 * (g - i)) for i in (1, 2, 3)}   # family rows
    alpha0 = (lam + alpha[1]) / 12                          # F0 row
    # G0 and H0 rows in (beta0, beta1):
    #   12 b0 - 3 b1 = 3 lam - 12 a0   and   (g-1) b0 - b1 = 2(g-2)
    rhs1 = 3 * lam - 12 * alpha0
    det = Fraction(12 * (-1) - (-3) * (g - 1))
    beta0 = (rhs1 * (-1) - (-3) * Fraction(2 * (g - 2))) / det
    beta1 = (g - 1) * beta0 - 2 * (g - 2)
    solved = solve_zg(g).divisor_class
    assert solved.bar("lambda") == lam
    assert solved.bar("alpha0") == alpha0 == Fraction(9, 4)
    assert solved.bar("beta0") == beta0 == 2
    assert solved.bar("beta1") == beta1 == 2
    for i in (1, 2, 3):
        assert solved.bar(f"alpha{i}") == alpha[i]


def test_solve_zg_genus5_degeneracy_oracle():
    # oracle: with lambda-bar = 13 and alpha0-bar = 7/4 substituted, the G0
    # and H0 relations both reduce to 4 b0 - b1 = 6; symbolically the
    # difference of the two rows is (g-5) b0 = 2g - 10.
    g = 5
    lam, alpha0 = Fraction(13), Fraction(7, 4)
    g0_reduced = (3 * lam - 12 * alpha0) / 3   # (12 b0 - 3 b1)/3 = 4 b0 - b1
    assert g0_reduced == 6 == 2 * (g - 2)
    report = solve_zg(5)
    assert report.degenerate
    assert report.divisor_class == zg_class(5)


# -- combinations and slopes ------------------------------------------------

def test_combine_intro_identity_componentwise_oracle():
    basis = moduli_basis(3)
    hyperelliptic = DivisorClass.from_mapping(
        basis, {"lambda": 9, "delta0": -1, "delta1": -3}
    )
    pushed = pushforward(3, zg_class(3))
    total = combine([hyperelliptic, pushed], [8, 1])
    # oracle: componentwise addition
    expected = {"lambda": 8 * 9 + 308, "delta0": -8 - 32, "delta1": -24 - 76}
    assert total == DivisorClass.from_mapping(basis, expected)
    assert total == DivisorClass.from_mapping(
        basis, {"lambda": 380, "delta0": -40, "delta1": -100}
    )


def test_combine_cancellation_and_zero_weights():
    z = zg_class(6)
    assert combine([z, z], [1, -1]).is_zero()
    assert combine([z], [0]).is_zero()


def test_slope_undefined_for_pure_lambda():
    lam = DivisorClass.from_mapping(moduli_basis(5), {"lambda": 1})
    with pytest.raises(UndefinedSlopeError):
        slope(lam)


def test_slope_zero_numerator():
    cls = DivisorClass.from_mapping(moduli_basis(5), {"delta0": -3})
    assert slope(cls) == 0


@pytest.mark.parametrize("call,error,message", [
    (lambda: combine([], []), PreconditionError, "combine needs at least one class"),
    (lambda: combine([zg_class(5)], []), PreconditionError, "combine needs one weight per class"),
    (lambda: certificate(13, "zz"), PreconditionError, "unknown auxiliary divisor 'zz'"),
    (lambda: slope(zg_class(5)), BasisMismatchError,
     "slope is defined for classes on the moduli basis"),
    (lambda: pullback(5, zg_class(5)), BasisMismatchError,
     "pullback expects a class on the moduli basis"),
], ids=["combine-empty", "combine-no-weight", "certificate-aux", "slope-spin", "pullback-spin"])
def test_public_refusals_name_their_input(call, error, message):
    with pytest.raises(error) as refusal:
        call()
    assert type(refusal.value) is error and str(refusal.value) == message


# -- certificates -----------------------------------------------------------

def test_certificate_bn_examples_and_closed_form():
    report = certificate(13, "bn")
    assert report.mu == Fraction(1, 7)
    assert report.verdict == "pass"
    combo_lambda = 13 - report.mu
    assert combo_lambda == Fraction(90, 7) == Fraction(11 * 13 + 37, 13 + 1)
    for g in range(13, 31):
        rep = certificate(g, "bn")
        # oracle: mu = 13 - (11g+37)/(g+1) simplified
        assert rep.mu == Fraction(2 * g - 24, g + 1)
        assert rep.mu > 0
        assert rep.verdict == "pass"
        slacks = dict(rep.slacks)
        assert slacks["lambda"] == 0
        assert slacks["alpha0"] == 0 and slacks["beta0"] == 0
        assert all(v >= 0 for v in slacks.values())


def test_certificate_bn_weights_closed_form_oracle():
    # oracle: the closed-form solution of the alpha_0 / beta_0 weight system
    for g in range(13, 31):
        rep = certificate(g, "bn")
        assert rep.weight_zg == Fraction(2, g - 2)
        assert rep.weight_aux == Fraction(3 * (3 * g - 10), (g - 2) * (g + 1))


def test_certificate_d12():
    report = certificate(12, "d12")
    assert report.weight_zg == Fraction(1, 5)
    assert report.weight_aux == Fraction(13, 19260)
    # oracle: hand elimination of the 2x2 system plus mu = 13 - (20x + 13245y)
    x, y = Fraction(1, 5), Fraction(13, 19260)
    assert 13 - (20 * x + 13245 * y) == Fraction(77, 1284)
    assert report.mu == Fraction(77, 1284)
    assert report.verdict == "pass"


def test_certificate_bn_refused_in_genus_12():
    with pytest.raises(PreconditionError):
        certificate(12, "bn")


def test_certificate_preconditions():
    with pytest.raises(PreconditionError):
        certificate(11, "d12")
    with pytest.raises(PreconditionError):
        certificate(13, "d12")
    with pytest.raises(PreconditionError):
        certificate(10, "bn")


def test_certificate_json_schema():
    report = certificate(13, "bn")
    payload = report.to_json_dict()
    assert set(payload) == {"g", "weights", "mu", "slacks",
                            "assumed_zero_pairings", "verdict"}
    assert payload["weights"]["zg"] == "2/11"
    assert payload["mu"] == "1/7"
    assert payload["verdict"] == "pass"
    d12 = certificate(12, "d12").to_json_dict()
    assert d12["weights"] == {"zg": "1/5", "aux": "13/19260"}
    assert d12["mu"] == "77/1284"
