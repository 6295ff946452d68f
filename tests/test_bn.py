import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspin import bn
from oddspin.bn import (
    bn_context,
    degeneracy_classes,
    evaluate_taut,
    evaluate_taut_recursion,
    jet_bundle_inverse_chern,
    point_pair_inverse_chern,
    restrict_to_locus,
    split_kernel_class,
)
from oddspin.errors import PreconditionError, PresetMismatchError, RingDomainError

from oddspin.genus12 import SIDE_X, side
from oddspin.record import clear_memos
from oddspin.ring import RingElem, RingPreset, preset_jacobian_product, preset_surface_product

from oracles import (
    expand_c_monomial,
    generating_function_value,
    laplace_det,
    model_normalize,
    model_split_kernel,
    model_terms,
    poly_mul,
    poly_pow,
    recip_factorial_rows,
    root_expansion_value,
    root_monomial_value,
)

# the Brill-Noether ladder of the benchmark, (g, r, d)
LADDER = ((11, 4, 14), (12, 5, 16), (16, 3, 17), (20, 4, 21),
          (24, 5, 26), (24, 7, 29), (30, 5, 32))


@pytest.fixture(scope="module")
def ctx():
    return bn_context(11, 4, 14)


@pytest.fixture(scope="module")
def jet(ctx):
    return jet_bundle_inverse_chern(ctx.preset, ctx.g, ctx.d)


def balanced_c_monomials(classes=5, weight=6):
    """All (m1..m_classes) with sum i*mi <= weight; theta absorbs the rest."""
    out = []

    def rec(i, left, acc):
        if i == classes + 1:
            out.append(tuple(acc))
            return
        for m in range(left // i + 1):
            rec(i + 1, left - i * m, acc + [m])

    rec(1, weight, [])
    return out


def balanced_element(ctx, exps):
    """eta * theta^a * prod c_i^{m_i} of degree rho + 1."""
    preset = ctx.preset
    weight = sum(i * m for i, m in enumerate(exps, start=1))
    elem = preset.gen("eta") * preset.gen("theta") ** (ctx.rho - weight)
    for i, m in enumerate(exps, start=1):
        elem = elem * preset.gen(f"c{i}") ** m
    return elem


def model_value(exps, theta_power):
    """Ground truth from the h^1 = 1 geometry on the symmetric product.

    The dual tautological classes there are c_i = theta^i/i! - x theta^(i-1)/(i-1)!
    with the point-type class x, and monomials integrate through
    int x^a theta^b = 11!/(11-b)! for a + b = 6.  This model follows from
    Riemann-Roch on the universal divisor and is independent of the
    determinant formula under test.
    """
    g = 11
    poly = {(0, theta_power): Fraction(1)}
    for i, m in enumerate(exps, start=1):
        ci = {
            (0, i): Fraction(1, math.factorial(i)),
            (1, i - 1): -Fraction(1, math.factorial(i - 1)),
        }
        for _ in range(m):
            poly = poly_mul(poly, ci)
    total = Fraction(0)
    for (a, b), coeff in poly.items():
        if a + b == 6 and b <= g:
            total += coeff * Fraction(math.factorial(g), math.factorial(g - b))
    return total


# -- Harris-Tu base value and degree bookkeeping ----------------------------

def test_ht_base_value_with_determinant_and_serre_oracles(ctx):
    rows = recip_factorial_rows(ctx, (0,) * 5)
    assert laplace_det(rows) == Fraction(1, 120)
    preset = ctx.preset
    value = evaluate_taut(ctx, preset.gen("eta") * preset.gen("theta") ** 6)
    assert value == laplace_det(rows) * math.factorial(11)
    assert value == 332640
    # Serre duality cross-check: the locus is the sixth symmetric product
    assert value == math.factorial(11) // math.factorial(5)


def test_ht_degree_guard(ctx):
    # a root monomial off the top degree integrates to 0; a class off the
    # top degree is refused by the evaluator rather than read as 0
    assert root_monomial_value(ctx, (0, 0, 0, 0, 0), 7) == 0
    assert root_monomial_value(ctx, (1, 0, 0, 0, 0), 6) == 0
    preset = ctx.preset
    with pytest.raises(RingDomainError):
        evaluate_taut(ctx, preset.gen("eta") * preset.gen("theta") ** 7)


def test_ht_eta_required(ctx):
    # classes pulled back from the locus (no eta) or carrying gamma pair to 0
    preset = ctx.preset
    eta, gamma, theta = preset.gen("eta"), preset.gen("gamma"), preset.gen("theta")
    assert evaluate_taut(ctx, theta ** 7) == 0
    assert evaluate_taut(ctx, theta ** 6 * preset.gen("c1")) == 0
    assert evaluate_taut(ctx, gamma * theta ** 6) == 0
    assert evaluate_taut(ctx, eta * theta ** 6 + theta ** 7) == 332640


def test_evaluate_taut_emits_no_warnings(ctx):
    preset = ctx.preset
    eta, theta = preset.gen("eta"), preset.gen("theta")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate_taut(ctx, eta * theta ** 4 * preset.gen("c1") ** 2)


# -- expand_c_monomial ------------------------------------------------------

def test_expand_rank2_examples():
    ctx2 = bn_context(4, 1, 3)
    assert expand_c_monomial(ctx2, (1,)) == {(1, 0): 1, (0, 1): 1}
    assert expand_c_monomial(ctx2, (0, 1)) == {(1, 1): 1}


def test_expand_c1_squared_brute_force():
    ctx2 = bn_context(4, 1, 3)
    e1 = {(1, 0): 1, (0, 1): 1}
    oracle = poly_pow(e1, 2, 2)
    assert expand_c_monomial(ctx2, (2,)) == oracle
    assert oracle == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_expand_rejects_too_many_classes(ctx):
    with pytest.raises(PreconditionError):
        expand_c_monomial(ctx, (0, 0, 0, 0, 0, 1))


# -- permutation robustness -------------------------------------------------

def test_symmetric_sums_invariant_under_slot_reversal(ctx):
    for exps in ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (3, 0, 0, 0, 0), (1, 0, 1, 0, 0)):
        weight = sum(i * m for i, m in enumerate(exps, start=1))
        a = 6 - weight
        forward = Fraction(0)
        reverse = Fraction(0)
        for mono, mult in expand_c_monomial(ctx, exps).items():
            forward += mult * root_monomial_value(ctx, mono, a)
            reverse += mult * root_monomial_value(ctx, tuple(reversed(mono)), a)
        assert forward == reverse


# -- kernel class -----------------------------------------------------------

def test_ker_substitute_linear_monomial_term_by_term(ctx, jet):
    # oracle: substitute, then normalize term by term; eta^2 = eta*gamma = 0
    # kill everything except the c5 part of the kernel push-down.
    preset = ctx.preset
    eta, theta, k = preset.gen("eta"), preset.gen("theta"), preset.gen("k")
    c5 = preset.gen("c5")
    assert restrict_to_locus(ctx, k * eta * theta, jet) == c5 * eta * theta


def test_restrict_to_locus_multiplies_k_free_input_by_the_locus_class(ctx, jet):
    preset = ctx.preset
    elem = 3 * preset.gen("eta") * preset.gen("c2")
    locus, _ = degeneracy_classes(ctx, jet)
    assert restrict_to_locus(ctx, elem, jet) == elem * locus
    # eta kills every eta- and gamma-term of the locus class but c4
    assert restrict_to_locus(ctx, elem, jet) == elem * preset.gen("c4")


def test_ker_substitute_rejects_k_squared(ctx, jet):
    k = ctx.preset.gen("k")
    with pytest.raises(RingDomainError):
        restrict_to_locus(ctx, k * k, jet)


def test_ker_substitution_class_forms(ctx, jet):
    # degeneracy_classes gives the locus class (degree r = 4) and the kernel
    # push-down (degree r+1 = 5) as two graded parts of one Chern series
    preset = ctx.preset
    eta, gamma, theta = preset.gen("eta"), preset.gen("gamma"), preset.gen("theta")
    c2, c3, c4, c5 = (preset.gen(f"c{i}") for i in range(2, 6))
    assert degeneracy_classes(ctx, jet) == (
        c4 - 6 * eta * theta * c2 + (48 * eta + 2 * gamma) * c3,
        c5 - 6 * eta * theta * c3 + (48 * eta + 2 * gamma) * c4,
    )
    assert degeneracy_classes(ctx, point_pair_inverse_chern(preset, ctx.d)) == (
        c4 - 2 * eta * theta * c2 + (13 * eta + gamma) * c3,
        c5 + (13 * eta + gamma) * c4 - 2 * eta * theta * c3,
    )
    # an inverse total Chern series starts with 1
    for source in (2 * jet, jet - 1, preset.zero()):
        with pytest.raises(RingDomainError, match="constant term 1"):
            degeneracy_classes(ctx, source)
    other = bn_context(12, 5, 16).preset
    with pytest.raises(PresetMismatchError):
        degeneracy_classes(ctx, jet_bundle_inverse_chern(other, 12, 16))


@pytest.mark.parametrize("call,error,message", [
    (lambda ctx: split_kernel_class(preset_surface_product(3).gen("F1")), RingDomainError,
     "the kernel class lives on the jacobian preset"),
    (lambda ctx: evaluate_taut(ctx, preset_jacobian_product(11, 14, 3).gen("eta")),
     PresetMismatchError, "element does not live in the context's preset"),
], ids=["split-off-jacobian", "evaluate-other-preset"])
def test_kernel_and_evaluator_refusals_name_their_input(ctx, call, error, message):
    with pytest.raises(error) as refusal:
        call(ctx)
    assert type(refusal.value) is error and str(refusal.value) == message


def test_split_kernel_class(ctx):
    preset = ctx.preset
    eta, k, c2 = preset.gen("eta"), preset.gen("k"), preset.gen("c2")
    free, linear = split_kernel_class(2 * eta + 5 * k * c2)
    assert free == 2 * eta
    assert linear == 5 * c2


@st.composite
def kernel_linear_classes(draw):
    """A small jacobian preset and {monomial: Fraction} with k-degree at most
    1, every coefficient over one drawn denominator (often above 1)."""
    g, r = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    preset = preset_jacobian_product(g, draw(st.integers(0, g + r)), r)
    den = draw(st.integers(1, 12))
    mono = st.tuples(*[st.integers(0, 2)] * (len(preset.names) - 1), st.integers(0, 1))
    coefficients = draw(st.dictionaries(mono, st.integers(-30, 30).filter(bool), max_size=8))
    return preset, {m: Fraction(n, den) for m, n in coefficients.items()}


@settings(max_examples=80, deadline=None)
@given(kernel_linear_classes(), st.integers(-5, 5).filter(bool))
def test_split_kernel_class_matches_the_fraction_split(case, square_coeff):
    preset, coefficients = case
    elem = preset.element(coefficients)
    want_free, want_linear = model_split_kernel(
        preset, model_normalize(preset, coefficients.items()))
    free, linear = split_kernel_class(elem)
    assert free.terms == model_terms(want_free)
    assert linear.terms == model_terms(want_linear)
    # the canonical form: equal to the parts built from their Fractions
    assert (free, linear) == (preset.element(want_free), preset.element(want_linear))
    # a k^2 term is refused as before, whatever else the class holds
    k = preset.gen("k")
    with pytest.raises(RingDomainError) as refusal:
        split_kernel_class(elem + Fraction(square_coeff, 7) * k * k)
    assert str(refusal.value) == (
        "kernel class appears with exponent >= 2; excess intersection"
        " is outside this evaluator's scope")


def test_evaluators_build_at_most_one_fraction_per_schur_shape(ctx, jet, fraction_builds):
    # the side-X ambient class: 43 terms over the denominator 3, 19 Schur
    # shapes.  At e4b4516 evaluate_taut built 174 Fractions on it, and the
    # h^1 = 1 rewrite 81.  Every shape's term is an integer over one common
    # denominator, so an evaluation builds one Fraction, whatever its shapes.
    ambient = restrict_to_locus(ctx, side(SIDE_X).integrand, jet)
    assert len(ambient.numerators) == 43 and ambient.denominator == 3
    for evaluate in (evaluate_taut, evaluate_taut_recursion):
        evaluate(ctx, ambient)  # warms the Schur memo
        with fraction_builds() as built:
            assert evaluate(ctx, ambient) == 197340
        assert len(built) == 1


def test_the_recursion_does_no_ring_arithmetic(ctx, jet, monkeypatch, fraction_builds):
    # at 425fd04 the h^1 = 1 rewrite of the side-X ambient class went through
    # the ring: 49 products, powers, elements and weighted sums cold, 33 warm.
    # Against eta, theta only fills the degree, so the rewrite reads the
    # c-exponents alone and builds no ring element.
    ambient = restrict_to_locus(ctx, side(SIDE_X).integrand, jet)
    calls = []
    for owner, name in ((RingElem, "__mul__"), (RingElem, "__pow__"),
                        (RingPreset, "element"), (RingPreset, "weighted_sum")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _call=getattr(owner, name):
                            calls.append(_name) or _call(*args))
    clear_memos()
    for _ in range(2):  # cold, then warm
        with fraction_builds() as built:
            assert evaluate_taut_recursion(ctx, ambient) == 197340
        assert calls == [] and len(built) == 1


def test_a_c1_power_fills_one_schur_memo_entry_through_both_evaluators(ctx, cold_memos):
    # the rewrite keys a pure c_1 power as (p, 0, ..., 0), the key
    # evaluate_taut reads off the monomial, so one expansion serves both
    eta_c1 = ctx.preset.gen("eta") * ctx.preset.gen("c1") ** ctx.rho
    assert evaluate_taut(ctx, eta_c1) == evaluate_taut_recursion(ctx, eta_c1)
    info = cold_memos()["_schur_expansion"]
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# -- the two evaluators -----------------------------------------------------

def test_evaluate_taut_base_cases(ctx):
    preset = ctx.preset
    eta, theta = preset.gen("eta"), preset.gen("theta")
    assert evaluate_taut(ctx, eta * theta ** 6) == 332640
    assert evaluate_taut(ctx, preset.zero()) == 0


def test_evaluate_taut_linearity(ctx):
    preset = ctx.preset
    eta, theta = preset.gen("eta"), preset.gen("theta")
    a = eta * theta ** 4 * preset.gen("c2")
    b = eta * theta ** 3 * preset.gen("c3")
    s, t = Fraction(7, 3), Fraction(-2, 5)
    assert evaluate_taut(ctx, s * a + t * b) == s * evaluate_taut(ctx, a) + t * evaluate_taut(ctx, b)


def test_evaluators_against_symmetric_product_model(ctx):
    for exps in balanced_c_monomials():
        weight = sum(i * m for i, m in enumerate(exps, start=1))
        elem = balanced_element(ctx, exps)
        expected = model_value(exps, 6 - weight)
        assert evaluate_taut(ctx, elem) == expected
        assert evaluate_taut_recursion(ctx, elem) == expected


def test_dual_evaluators_agree_exhaustively(ctx):
    count = 0
    for exps in balanced_c_monomials():
        elem = balanced_element(ctx, exps)
        assert evaluate_taut(ctx, elem) == evaluate_taut_recursion(ctx, elem)
        count += 1
    # partitions of 0..6 into parts of size at most 5
    assert count == 29


def test_recursion_rewrites_c2_power_series_oracle(ctx):
    # oracle: expand (1 + u) * e^{-theta} with u = theta - c1 as a formal
    # series in (c1, theta); degree-i parts give (-1)^i c_i, hence every c_i
    # as a polynomial in c1 and theta.  Compare with the engine's rewrite of
    # a bare c_i (read off by evaluating against spanning monomials).
    preset = ctx.preset
    eta, theta, c1 = preset.gen("eta"), preset.gen("theta"), preset.gen("c1")
    # series coefficients: (-1)^i c_i = (-theta)^i/i! + (theta - c1)(-theta)^(i-1)/(i-1)!
    for i in range(2, 6):
        lead = Fraction((-1) ** i, math.factorial(i)) * theta ** i
        mixed = (theta - c1) * Fraction((-1) ** (i - 1), math.factorial(i - 1)) * theta ** (i - 1)
        ci_poly = Fraction((-1) ** i) * (lead + mixed)
        bare = eta * theta ** (6 - i) * preset.gen(f"c{i}")
        rewritten = eta * theta ** (6 - i) * ci_poly
        assert evaluate_taut(ctx, bare) == evaluate_taut(ctx, rewritten)
    # spot check the i = 1 instance of the printed relation
    c2_image = c1 * theta - Fraction(1, 2) * theta ** 2
    assert evaluate_taut(ctx, eta * theta ** 4 * preset.gen("c2")) == evaluate_taut(
        ctx, eta * theta ** 4 * c2_image
    )


@st.composite
def h1_one_classes(draw):
    """An h^1 = 1 context whose next locus is empty (r <= 4, r+1 <= g <=
    2r+3, d = g+r-1) and a sum of balanced c-monomials with small
    coefficients over a drawn denominator."""
    r = draw(st.integers(0, 4))
    g = draw(st.integers(r + 1, 2 * r + 3))
    ctx = bn_context(g, r, g + r - 1)
    den = draw(st.integers(1, 6))
    monomial = st.sampled_from(balanced_c_monomials(r + 1, ctx.rho))
    elem = ctx.preset.zero()
    for coeff, exps in draw(st.lists(st.tuples(st.integers(-5, 5).filter(bool), monomial),
                                     min_size=1, max_size=4)):
        elem = elem + Fraction(coeff, den) * balanced_element(ctx, exps)
    return ctx, elem


@settings(max_examples=60, deadline=None)
@given(h1_one_classes())
def test_the_recursion_matches_the_direct_core_and_the_root_oracle(case):
    ctx, elem = case
    value = evaluate_taut_recursion(ctx, elem)
    assert value == evaluate_taut(ctx, elem) == root_expansion_value(ctx, elem)


@pytest.mark.parametrize("g,r,d", [(16, 3, 17), (20, 4, 21)])
def test_evaluate_taut_matches_root_expansion_oracle(g, r, d):
    ctx = bn_context(g, r, d)
    for exps in balanced_c_monomials(ctx.r + 1, ctx.rho):
        elem = balanced_element(ctx, exps)
        assert evaluate_taut(ctx, elem) == root_expansion_value(ctx, elem), exps


@pytest.mark.parametrize("g,r,d", LADDER)
def test_acgh_closed_form_on_the_ladder(g, r, d):
    # int eta*theta^rho = g! prod_{i=0..r} i!/(g-d+r+i)!  (ACGH, Ch. VII)
    ctx = bn_context(g, r, d)
    expected = Fraction(math.factorial(g))
    for i in range(r + 1):
        expected *= Fraction(math.factorial(i), math.factorial(g - d + r + i))
    theta = ctx.preset.gen("theta")
    assert evaluate_taut(ctx, ctx.preset.gen("eta") * theta ** ctx.rho) == expected


@st.composite
def small_context_monomials(draw):
    g = draw(st.integers(1, 10))
    r = draw(st.integers(0, 3))
    h1 = draw(st.integers(0, g // (r + 1)))  # g - d + r, keeping rho >= 0
    ctx = bn_context(g, r, g + r - h1)
    exps = draw(st.sampled_from(balanced_c_monomials(r + 1, ctx.rho)))
    return ctx, exps


@settings(max_examples=60, deadline=None)
@given(small_context_monomials())
def test_generating_function_core_matches_root_expansion_on_small_contexts(case):
    ctx, exps = case
    elem = balanced_element(ctx, exps)
    assert evaluate_taut(ctx, elem) == root_expansion_value(ctx, elem)


@st.composite
def small_context_integrand_sequences(draw):
    """A small context and integrands of mixed c_1 orders and Schur shapes:
    each a sum of one to three balanced monomials with small coefficients."""
    g = draw(st.integers(1, 10))
    r = draw(st.integers(0, 3))
    h1 = draw(st.integers(0, g // (r + 1)))
    ctx = bn_context(g, r, g + r - h1)
    monomial = st.sampled_from(balanced_c_monomials(r + 1, ctx.rho))
    coefficient = st.integers(-3, 3).filter(bool)
    integrands = []
    for terms in draw(st.lists(st.lists(st.tuples(coefficient, monomial), min_size=1,
                                        max_size=3), min_size=1, max_size=5)):
        elem = ctx.preset.zero()
        for coeff, exps in terms:
            elem = elem + coeff * balanced_element(ctx, exps)
        integrands.append(elem)
    return ctx, integrands


@settings(max_examples=40, deadline=None)
@given(small_context_integrand_sequences())
def test_values_do_not_depend_on_what_the_schur_memo_holds(case):
    # the memo is shared with every earlier example of equal rows
    ctx, integrands = case
    values = [evaluate_taut(ctx, elem) for elem in integrands]
    for elem, value in zip(integrands, values):
        clear_memos()
        assert evaluate_taut(ctx, elem) == value == root_expansion_value(ctx, elem)


def test_vertical_strips_match_every_0_1_row_vector():
    # the brute force adds a 0/1 vector to the rows and keeps the partitions
    for rows in range(1, 6):
        for shape in itertools.combinations_with_replacement(range(3, -1, -1), rows):
            for k in range(1, 6):
                brute = [tuple(map(sum, zip(shape, v)))
                         for v in itertools.product((0, 1), repeat=rows) if sum(v) == k]
                expected = [s for s in brute if list(s) == sorted(s, reverse=True)]
                assert sorted(bn._vertical_strips(shape, k)) == sorted(expected)


def test_vertical_strips_need_no_recursion_for_many_rows():
    # one recursive call per row passed the default recursion limit near 1000
    assert bn._vertical_strips((0,) * 3000, 2) == [(1, 1) + (0,) * 2998]


def _partitions(n, parts, largest=None):
    """The partitions of n into at most ``parts`` parts, padded with zeros."""
    largest = n if largest is None else largest
    if n == 0:
        return [(0,) * parts]
    if parts == 0:
        return []
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, parts - 1, first)]


def _hook_product(shape):
    """The product of the hook lengths of a partition."""
    conjugate = [sum(part > j for part in shape) for j in range(max(shape, default=0))]
    return math.prod(part - j + conjugate[j] - i - 1
                     for i, part in enumerate(shape) for j in range(part))


@pytest.mark.parametrize("g,r,d", LADDER)
def test_each_shape_integrates_to_the_hook_length_formula(g, r, d):
    # L(s_mu) = f^nu / |nu|! = 1 / prod hooks(nu), nu = mu + (b^(r+1))
    ctx = bn_context(g, r, d)
    b = g - d + r
    for n in range(ctx.rho + 1):
        for mu in _partitions(n, r + 1):
            nu = [b + part for part in mu]
            assert bn._integrate_shapes(ctx, {mu: 1}, 1) == Fraction(
                math.factorial(g), _hook_product(nu)), mu


def test_a_c1_power_integrates_each_partition_with_its_tableau_count(ctx, monkeypatch):
    # Pieri: c_1^rho is the sum over the partitions lambda of rho into at
    # most r+1 parts of f^lambda s_lambda, f^lambda = rho!/prod hooks the
    # number of standard tableaux; theta^rho integrates the empty shape alone
    seen = []
    integrate = bn._integrate_shapes
    monkeypatch.setattr(bn, "_integrate_shapes",
                        lambda c, weights, den: seen.append(weights) or integrate(c, weights, den))
    eta = ctx.preset.gen("eta")
    for name in ("c1", "theta"):
        evaluate_taut(ctx, eta * ctx.preset.gen(name) ** ctx.rho)
    rho, rows = ctx.rho, ctx.r + 1
    assert seen == [
        {mu: math.factorial(rho) // _hook_product(mu) for mu in _partitions(rho, rows)},
        {(0,) * rows: 1},
    ]
    assert len(seen[0]) == 10


@pytest.mark.parametrize("first,then,c1_call", [("c1", "theta", 1), ("theta", "c1", 2)])
def test_a_determinant_kept_at_a_high_order_serves_the_lower_ones(
        ctx, monkeypatch, first, then, c1_call):
    # the closed form builds one table of top!/m! at the largest first part
    # of its shapes; integrating the empty shape of theta^rho with the table
    # kept for the Pieri shapes of c1^rho gives its own value, in either order
    seen = []
    integrate = bn._integrate_shapes
    monkeypatch.setattr(bn, "_integrate_shapes",
                        lambda c, weights, den: seen.append(weights) or integrate(c, weights, den))
    eta = ctx.preset.gen("eta")
    values = [evaluate_taut(ctx, eta * ctx.preset.gen(name) ** ctx.rho) for name in (first, then)]
    assert len(seen) == 2
    assert max(shape[0] for shape in seen[c1_call - 1]) == ctx.rho
    assert set(seen[2 - c1_call]) == {(0,) * (ctx.r + 1)}
    merged = dict(seen[0])
    for shape, weight in seen[1].items():
        merged[shape] = merged.get(shape, 0) + weight
    assert integrate(ctx, merged, 1) == sum(values)
    assert evaluate_taut(ctx, eta * (ctx.preset.gen(first) ** ctx.rho
                                     + ctx.preset.gen(then) ** ctx.rho)) == sum(values)


def _bench_classes(ctx):
    """eta*c1^rho, eta*c2*c1^(rho-2), eta*c3*c1^(rho-3), and a class that
    mixes shapes, c_1 orders, a theta term and a denominator."""
    p, rho = ctx.preset, ctx.rho
    eta, theta = p.gen("eta"), p.gen("theta")
    c = [None] + [p.gen(f"c{i}") for i in range(1, ctx.r + 2)]
    return {
        "c1": eta * c[1] ** rho,
        "c2c1": eta * c[2] * c[1] ** (rho - 2),
        "c3c1": eta * c[3] * c[1] ** (rho - 3),
        "mixed": eta * c[1] ** (rho - 4) * (2 * c[2] ** 2 - 3 * theta * c[3] + c[4])
        + Fraction(1, 2) * eta * theta ** rho,
    }


@pytest.mark.parametrize("g,r,d", LADDER + ((16, 9, 24),))
def test_bench_classes_match_the_generating_function_and_root_oracles(g, r, d):
    # the Chern-root expansion of c1^rho has 6435 and 6188 root monomials
    # on the two top rungs, and 5005 at r = 9, which takes seconds; there
    # the generating-function oracle alone checks the value
    ctx = bn_context(g, r, d)
    for name, elem in _bench_classes(ctx).items():
        value = evaluate_taut(ctx, elem)
        assert value == generating_function_value(ctx, elem), name
        if (g, r, d) not in ((24, 7, 29), (30, 5, 32), (16, 9, 24)):
            assert value == root_expansion_value(ctx, elem), name


@pytest.mark.parametrize("evaluate", [evaluate_taut, evaluate_taut_recursion])
def test_evaluators_refuse_mixed_kernel_input(ctx, jet, evaluate):
    # the k-free part of a restricted class needs the locus factor, which a
    # bare kernel substitution dropped: -59400 in place of the pipeline's
    # 197340.  Any class containing k is now refused.
    integrand = side(SIDE_X).integrand
    with pytest.raises(RingDomainError, match="restrict_to_locus"):
        evaluate(ctx, integrand)
    assert evaluate(ctx, restrict_to_locus(ctx, integrand, jet)) == 197340
    preset = ctx.preset
    with pytest.raises(RingDomainError):
        evaluate(ctx, preset.gen("eta") * preset.gen("theta") ** 6 + preset.gen("k"))


@pytest.mark.parametrize("evaluate", [evaluate_taut, evaluate_taut_recursion])
def test_evaluators_refuse_off_degree_input(ctx, jet, evaluate):
    preset = ctx.preset
    eta, theta, k = preset.gen("eta"), preset.gen("theta"), preset.gen("k")
    for elem in (eta * theta ** 5, eta * theta ** 6 + eta * theta ** 5, preset.one()):
        with pytest.raises(RingDomainError):
            evaluate(ctx, elem)
    with pytest.raises(RingDomainError):
        evaluate(ctx, restrict_to_locus(ctx, k * eta * theta ** 5, jet))  # degree 11
    assert evaluate(ctx, preset.zero()) == 0
    linear = k * eta * theta  # degree 7 once k is pushed down to c5
    with pytest.raises(RingDomainError, match="restrict_to_locus"):
        evaluate(ctx, linear)
    assert evaluate(ctx, restrict_to_locus(ctx, linear, jet)) == evaluate(
        ctx, eta * theta * preset.gen("c5")
    )


def test_recursion_refuses_wrong_context():
    ctx12 = bn_context(12, 4, 14)  # rho = 2 but h^1 = 2: refusal
    eta = ctx12.preset.gen("eta")
    with pytest.raises(PreconditionError):
        evaluate_taut_recursion(ctx12, eta)


def test_context_validation():
    with pytest.raises(PreconditionError):
        bn_context(11, 5, 14)  # rho = -1
    with pytest.raises(PreconditionError):
        bn_context(2, 0, 5)  # g - d + r < 0: W^0_5 is all of Pic^5
    ctx = bn_context(11, 4, 14)
    assert ctx.rho == 6
    assert ctx.dim_total == 7


def test_bn_context_takes_only_ints():
    # 11.0 used to be accepted, and evaluate_taut then raised a bare
    # TypeError; True named its preset jacobian(g=True,...)
    for slot, name in enumerate("grd"):
        for bad in (11.0, Fraction(11), True, "11"):
            args = [11, 4, 14]
            args[slot] = bad
            with pytest.raises(PreconditionError) as refusal:
                bn_context(*args)
            assert type(refusal.value) is PreconditionError
            assert str(refusal.value) == f"{name} must be an int, got {bad!r}"
