from fractions import Fraction

import pytest

from oddspin import bn, genus12
from oddspin.bn import (
    evaluate_taut,
    evaluate_taut_recursion,
    jet_bundle_inverse_chern,
    point_pair_inverse_chern,
    restrict_to_locus,
    split_kernel_class,
)
from oddspin.cli import run_command
from oddspin.errors import InternalCheckError, PreconditionError
from oddspin.genus12 import (
    SIDE_X,
    SIDE_Y,
    BundleChern,
    context,
    d12_class_info,
    d12_coefficients,
    d12_slope_report,
    side,
    sym2_chern,
)
from oddspin.picard import pair, slope
from oddspin.picard import test_curve as boundary_curve
from oddspin.ring import RingElem, geometric_series


@pytest.fixture(scope="module")
def preset():
    return context().preset


def g3(preset):
    return preset.gen("eta"), preset.gen("gamma"), preset.gen("theta")


def jet_inverse_chern(g_curve, d):
    return jet_bundle_inverse_chern(context().preset, g_curve, d)


def ambient_integrand(name):
    record = side(name)
    return restrict_to_locus(context(), record.integrand, record.source)


# -- jet series -------------------------------------------------------------

def test_jet_inverse_chern_at_pipeline_parameters(preset):
    eta, gamma, theta = g3(preset)
    assert jet_inverse_chern(11, 14) == 1 + 48 * eta + 2 * gamma - 6 * eta * theta
    assert side(SIDE_X).source == jet_inverse_chern(11, 14)


def test_jet_inverse_chern_degenerate_twists_series_oracle(preset):
    # oracle: with both twist degrees zero the two factors are the
    # geometric series of gamma itself, so the product is
    # sum (n+1) gamma^n = 1 + 2 gamma + 3 gamma^2 = 1 + 2 gamma - 6 eta theta.
    eta, gamma, theta = g3(preset)
    oracle = geometric_series(gamma) * geometric_series(gamma)
    assert oracle == 1 + 2 * gamma - 6 * eta * theta
    assert jet_inverse_chern(1, 0) == oracle


def test_jet_inverse_degree_one_eta_coefficient(preset):
    eta = preset.gen("eta")
    for g_curve, d in ((2, 5), (7, 9), (11, 14)):
        part = jet_inverse_chern(g_curve, d).homogeneous_part(1)
        eta_index = preset.index("eta")
        mono = [0] * len(preset.names)
        mono[eta_index] = 1
        assert part.coefficient(tuple(mono)) == d + (2 * g_curve - 2 + d)
    for g_curve, d in ((0, 5), (11, -1)):
        with pytest.raises(PreconditionError):
            jet_inverse_chern(g_curve, d)
    # the point-pair series refuses a negative degree as the jet series does
    with pytest.raises(PreconditionError, match="line_degree >= 0"):
        point_pair_inverse_chern(preset, -3)


# -- locus classes ----------------------------------------------------------

def test_class_locus_displays(preset):
    eta, gamma, theta = g3(preset)
    c2, c3, c4 = preset.gen("c2"), preset.gen("c3"), preset.gen("c4")
    assert side(SIDE_X).locus == c4 - 6 * eta * theta * c2 + (48 * eta + 2 * gamma) * c3
    assert side(SIDE_Y).locus == c4 - 2 * eta * theta * c2 + (13 * eta + gamma) * c3
    with pytest.raises(PreconditionError, match="unknown side"):
        side("Z")


def test_class_locus_killed_by_eta_squared(preset):
    eta = preset.gen("eta")
    assert (side(SIDE_X).locus * eta * eta).is_zero()


# -- symmetric square -------------------------------------------------------

def test_sym2_chern_rank5(preset):
    c1, c2, c3 = preset.gen("c1"), preset.gen("c2"), preset.gen("c3")
    sym = sym2_chern(BundleChern("V", c1, c2, c3), 4)
    assert sym.c1 == 6 * c1
    assert sym.c2 == 14 * c1 * c1 + 7 * c2
    assert sym.c3 == 16 * c1 ** 3 + 9 * c3 + 31 * c1 * c2


def test_sym2_chern_line_bundle(preset):
    c1 = preset.gen("c1")
    zero = preset.zero()
    sym = sym2_chern(BundleChern("L", c1, zero, zero), 0)
    assert sym.c1 == 2 * c1
    assert sym.c2.is_zero()
    assert sym.c3.is_zero()


def test_sym2_chern_zero_bundle(preset):
    zero = preset.zero()
    sym = sym2_chern(BundleChern("0", zero, zero, zero), 4)
    assert sym.c1.is_zero() and sym.c2.is_zero() and sym.c3.is_zero()


# -- multiplication bundles -------------------------------------------------

def test_bundle_chern_recorded_classes(preset):
    eta, gamma, theta = g3(preset)
    a2 = side(SIDE_X).bundle
    assert a2.name == "A2"
    assert a2.c1 == -4 * theta - 4 * gamma - 76 * eta
    assert a2.c2 == 8 * theta ** 2 + 280 * eta * theta + 16 * gamma * theta
    b2 = side(SIDE_Y).bundle
    assert b2.name == "B2"
    assert b2.c2 == 8 * theta ** 2 + 100 * eta * theta + 8 * theta * gamma
    assert (
        a2.c3 + Fraction(32, 3) * theta ** 3 + 512 * eta * theta ** 2
        + 32 * theta ** 2 * gamma
    ).is_zero()


# -- integrands -------------------------------------------------------------

def x_side_reference(preset):
    eta, gamma, theta = g3(preset)
    c1, c2, c3 = preset.gen("c1"), preset.gen("c2"), preset.gen("c3")
    return (
        28 * c2 * theta - 88 * c1 * c1 * theta + 440 * eta * c1 * c1
        - 53 * c1 * c2 - Fraction(32, 3) * theta ** 3 + 128 * eta * theta ** 2
        - 432 * eta * theta * c1 + 64 * c1 ** 3 - 140 * eta * c2
        + 48 * theta ** 2 * c1 + 9 * c3
    )


def y_side_reference(preset):
    eta, gamma, theta = g3(preset)
    c1, c2, c3 = preset.gen("c1"), preset.gen("c2"), preset.gen("c3")
    return (
        28 * c2 * theta - 88 * c1 * c1 * theta - 22 * eta * c1 * c1
        - 53 * c1 * c2 - Fraction(32, 3) * theta ** 3 - 8 * eta * theta ** 2
        + 24 * eta * theta * c1 + 64 * c1 ** 3 + 7 * eta * c2
        + 48 * theta ** 2 * c1 + 9 * c3
    )


def test_c3_difference_k_free_parts_match_recorded_polynomials(preset):
    kfree_x, _ = split_kernel_class(side(SIDE_X).integrand)
    kfree_y, _ = split_kernel_class(side(SIDE_Y).integrand)
    assert kfree_x == x_side_reference(preset)
    assert kfree_y == y_side_reference(preset)


def test_c3_difference_kernel_coefficients(preset):
    # recorded closed form for the Y side, general formula for X
    r = 4
    c1, c2 = preset.gen("c1"), preset.gen("c2")
    _, kcoeff_y = split_kernel_class(side(SIDE_Y).integrand)
    b2 = side(SIDE_Y).bundle
    assert kcoeff_y == (
        -2 * b2.c2 - 2 * (r + 2) ** 2 * c1 * c1 - 2 * (r + 2) * b2.c1 * c1
        + r * (r + 3) * c1 * c1 + 2 * (r + 3) * c2
    )
    _, kcoeff_x = split_kernel_class(side(SIDE_X).integrand)
    a2 = side(SIDE_X).bundle
    assert kcoeff_x == (
        -2 * a2.c2 - 2 * (r + 2) ** 2 * c1 * c1 - 2 * (r + 2) * a2.c1 * c1
        + r * (r + 3) * c1 * c1 + 2 * (r + 3) * c2
    )


def test_dual_evaluators_agree_on_full_integrands():
    ctx = context()
    for name in (SIDE_X, SIDE_Y):
        integrand = ambient_integrand(name)
        assert evaluate_taut(ctx, integrand) == evaluate_taut_recursion(ctx, integrand)


# -- headline numbers -------------------------------------------------------

def test_d12_coefficients():
    a, b0, b1 = d12_coefficients()
    assert (a, b0, b1) == (13245, 1926, 9867)


def test_side_totals_through_test_curve_pairings():
    ctx = context()
    a, b0, b1 = d12_coefficients()
    total_x = evaluate_taut(ctx, ambient_integrand(SIDE_X))
    total_y = evaluate_taut(ctx, ambient_integrand(SIDE_Y))
    assert total_x == 20 * b1 == 197340
    assert total_y == 22 * b0 - b1 == 32505
    assert (side(SIDE_X).total, side(SIDE_Y).total) == (total_x, total_y)
    divisor = d12_class_info().divisor
    assert pair(boundary_curve("C1", 12), divisor) == total_x
    assert pair(boundary_curve("C0", 12), divisor) == total_y
    assert pair(boundary_curve("R", 12), divisor) == 0


def test_d12_slope_report():
    report = d12_slope_report()
    assert report.slope == Fraction(4415, 642)
    assert report.threshold == Fraction(90, 13)
    assert report.violates_slope_conjecture is True
    assert (report.cross_lhs, report.cross_rhs) == (57395, 57780)
    assert report.slope - Fraction(41, 6) == Fraction(14, 321)
    assert Fraction(41, 6) <= report.slope


def test_d12_class_slope():
    assert slope(d12_class_info().divisor) == Fraction(4415, 642)


def test_elliptic_pencil_relation():
    a, b0, b1 = d12_coefficients()
    assert a - 12 * b0 + b1 == 0
    assert b0 > 0 and b1 > 0


# -- the pipeline's hard checks ---------------------------------------------

def _clear_pipeline_caches():
    for cached in (side, d12_coefficients, bn.degeneracy_classes, bn._recursion_images):
        cached.cache_clear()
    bn._series_memo.clear()


@pytest.fixture
def fresh_pipeline():
    """Empty every pipeline cache and the Harris-Tu determinant memo before
    and after the test, so a perturbed check runs now on fresh determinants
    and the good values are recomputed afterwards."""
    _clear_pipeline_caches()
    yield
    _clear_pipeline_caches()


def test_d12_takes_one_determinant_per_schur_shape(fresh_pipeline, series_det_orders):
    # both sides and both evaluators share one context and its 12 shapes
    assert d12_coefficients() == (13245, 1926, 9867)
    assert len(series_det_orders) == 12


def test_a_cold_pipeline_makes_at_most_40_powers(fresh_pipeline, monkeypatch, fraction_builds):
    # at e4b4516 a cold d12_coefficients() made 134 RingElem.__pow__ calls,
    # each image power of the h^1 = 1 rewrite once per term, and built 619
    # Fractions, most of them the Fraction view of the classes the
    # evaluators and the kernel split read; the Fraction bound here is a
    # tenth of that
    powers = []
    power = RingElem.__pow__
    monkeypatch.setattr(RingElem, "__pow__", lambda self, n: powers.append(n) or power(self, n))
    with fraction_builds() as built:
        assert d12_coefficients() == (13245, 1926, 9867)
    assert len(powers) <= 40
    assert len(built) <= 62


def _perturbed_recorded_locus(monkeypatch):
    recorded = genus12._recorded

    def perturbed(name):
        source, bundle, quotient_c1, locus, kfree = recorded(name)
        return source, bundle, quotient_c1, locus + context().preset.gen("c4"), kfree

    monkeypatch.setattr(genus12, "_recorded", perturbed)


def _perturbed_kfree_reference(monkeypatch):
    recorded = genus12._recorded

    def perturbed(name):
        source, bundle, quotient_c1, locus, kfree = recorded(name)
        return source, bundle, quotient_c1, locus, kfree + context().preset.gen("c3")

    monkeypatch.setattr(genus12, "_recorded", perturbed)


def _perturbed_evaluator_agreement(monkeypatch):
    recursion = genus12.evaluate_taut_recursion
    monkeypatch.setattr(genus12, "evaluate_taut_recursion",
                        lambda ctx, e: recursion(ctx, e) + 1)


@pytest.mark.parametrize("perturb,message", [
    (_perturbed_recorded_locus, "recorded degree-4 form"),
    (_perturbed_kfree_reference, "recorded polynomial"),
    (_perturbed_evaluator_agreement, "evaluators disagree"),
], ids=["recorded_locus", "kfree_reference", "evaluator_agreement"])
def test_pipeline_hard_checks_fire(fresh_pipeline, monkeypatch, perturb, message):
    perturb(monkeypatch)
    with pytest.raises(InternalCheckError, match=message):
        d12_coefficients()
    outcome = run_command(["d12", "run"])
    assert outcome.exit_code == 4
    assert outcome.stderr.startswith("internal check failed:")
