import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddspin.errors import PresetMismatchError, RingDomainError
from oddspin.ring import (
    RingElem,
    adjunction_genus,
    geometric_series,
    integrate,
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
    surface_canonical_class,
)

from oracles import (
    jacobian_normal_form,
    model_add,
    model_homogeneous_part,
    model_mul,
    model_normalize,
    model_pow,
    model_render,
    model_scale,
    model_terms,
)


@pytest.fixture(scope="module")
def jac11():
    return preset_jacobian_product(11, 14, 4)


def gens(preset, *names):
    return tuple(preset.gen(n) for n in names)


# -- relations --------------------------------------------------------------

def test_gamma_eta_annihilate(jac11):
    eta, gamma = gens(jac11, "eta", "gamma")
    assert (gamma * eta).is_zero()


def test_gamma_squared_theta(jac11):
    eta, gamma, theta = gens(jac11, "eta", "gamma", "theta")
    assert gamma * gamma * theta == -2 * eta * theta * theta


def test_gamma_cubed_via_both_reduction_orders(jac11):
    eta, gamma, theta = gens(jac11, "eta", "gamma", "theta")
    # order 1: (gamma^2) * gamma -> -2 eta theta gamma -> 0 by eta*gamma
    first = (gamma * gamma) * gamma
    # order 2: gamma * (gamma^2) -> same rules applied from the right
    second = gamma * (gamma * gamma)
    assert first.is_zero() and second.is_zero()
    assert (gamma ** 3).is_zero()


# -- multiplication ---------------------------------------------------------

def test_eta_annihilates_jet_series_tail(jac11):
    eta, gamma, theta = gens(jac11, "eta", "gamma", "theta")
    series = 1 + 48 * eta + 2 * gamma - 6 * eta * theta
    assert series * eta == eta


def test_square_of_line_class_manual_expansion(jac11):
    # oracle: expand (14 eta + gamma)^2 by hand, then apply the three rules
    # once each: 196 eta^2 -> 0, 28 eta*gamma -> 0, gamma^2 -> -2 eta theta.
    eta, gamma, theta = gens(jac11, "eta", "gamma", "theta")
    oracle = -2 * eta * theta
    assert (14 * eta + gamma) ** 2 == oracle


def test_theta_powers_survive_below_truncation(jac11):
    theta = jac11.gen("theta")
    g = jac11.param("g")
    assert not (theta * theta ** g).is_zero()
    assert (theta ** (g + 2)).is_zero()


def test_truncation_spares_chern_monomials(jac11):
    eta, theta, c5 = gens(jac11, "eta", "theta", "c5")
    elem = eta * c5 * theta ** 10  # codimension 16, still stored
    assert not elem.is_zero()


def test_jacobian_normal_form_does_not_depend_on_bracketing():
    # at g = 1 a monomial with theta^3 is zero on curve x Pic^d (dimension 2),
    # whatever its c-part; before, (theta + c1)^4 kept 3*theta^3*c1 + ...
    preset = preset_jacobian_product(1, 1, 0)
    theta, c1 = gens(preset, "theta", "c1")
    expected = 6 * theta ** 2 * c1 ** 2 + 4 * theta * c1 ** 3 + c1 ** 4
    assert (theta + c1) ** 4 == expected
    assert (theta + c1) ** 2 * (theta + c1) ** 2 == expected
    assert (theta ** 3 * c1).is_zero() and (theta * (theta ** 2 * c1)).is_zero()


JAC_SMALL = (preset_jacobian_product(1, 1, 0), preset_jacobian_product(2, 3, 1))


@st.composite
def jacobian_triples(draw):
    preset = draw(st.sampled_from(JAC_SMALL))
    # each c_i and k mostly absent, so that products mix terms with and
    # without a c- or k-part
    exponents = [st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)]
    exponents += [st.sampled_from((0, 0, 1))] * (len(preset.names) - 3)

    def element():
        terms = draw(st.dictionaries(st.tuples(*exponents), st.integers(-3, 3),
                                     min_size=1, max_size=3))
        return preset.element(terms)

    return element(), element(), element()


@settings(max_examples=200, deadline=None)
@given(jacobian_triples())
def test_jacobian_product_is_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@st.composite
def jacobian_monomials(draw):
    g, r = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    preset = preset_jacobian_product(g, g + 1, r)
    # eta^2, gamma^3 and beyond, eta+gamma+theta degrees up to g + 3
    head = (draw(st.integers(0, 3)), draw(st.integers(0, 4)), draw(st.integers(0, g + 2)))
    tail = tuple(draw(st.integers(0, 2)) for _ in range(len(preset.names) - 3))
    coeff = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4)))
    return preset, head + tail, coeff


J2 = preset_jacobian_product(2, 3, 1)  # eta, gamma, theta, c1, c2, k


@settings(max_examples=300, deadline=None)
@given(jacobian_monomials())
@example((J2, (2, 0, 0, 1, 0, 0), Fraction(1)))   # eta^2
@example((J2, (0, 3, 0, 0, 1, 1), Fraction(5)))   # gamma^3, mixed c/k part
@example((J2, (0, 2, 1, 2, 1, 1), Fraction(-3)))  # gamma^2*theta at degree g + 1
@example((J2, (0, 2, 2, 0, 0, 0), Fraction(2)))   # gamma^2*theta^2 above g + 1
@example((J2, (1, 1, 0, 0, 2, 0), Fraction(7)))   # eta*gamma
def test_normal_form_matches_repeated_rewriting(case):
    preset, mono, coeff = case
    assert dict(preset.element({mono: coeff}).terms) == jacobian_normal_form(preset, mono, coeff)


@pytest.mark.parametrize("preset,name", [
    (preset_jacobian_product(3, 2, 0), "theta"),
    (preset_universal_curve(3), "omega"),
])
def test_power_takes_logarithmically_many_products(monkeypatch, preset, name):
    products = []
    multiply = RingElem.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counted)
    n = 10 ** 8
    power = preset.gen(name) ** n
    assert len(products) <= 2 * n.bit_length()
    if name == "theta":
        assert power.is_zero()  # theta^5 already vanishes at g = 3
    else:
        assert power.render() == f"omega^{n}"


def test_a_multi_term_power_squares_from_the_base(monkeypatch):
    preset = preset_universal_curve(3)
    base = preset.gen("omega") + Fraction(2, 3) * preset.gen("lambda") - 1
    model, one = dict(base.terms), preset.one()
    operands = []
    multiply = RingElem.__mul__

    def counted(self, other):
        operands.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counted)
    monkeypatch.setattr(RingElem, "__rmul__", counted)
    for n in range(18):
        operands.clear()
        power = base ** n
        # (bit_length - 1) squarings and (popcount - 1) products by the base
        assert len(operands) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
        assert all(one not in pair for pair in operands)
        assert power.terms == model_terms(model_pow(preset, model, n))
    assert base ** 0 == one


def _square_and_multiply(base, n):
    result, square = base.preset.one(), base
    while n:
        if n & 1:
            result = result * square
        n >>= 1
        square = square * square
    return result


@settings(max_examples=300, deadline=None)
@given(jacobian_monomials(), st.integers(0, 6))
@example((J2, (0, 1, 0, 0, 0, 0), Fraction(1)), 2)    # gamma^2 = -2*eta*theta
@example((J2, (0, 1, 1, 1, 0, 1), Fraction(-3)), 2)   # with theta, c1 and k
@example((J2, (0, 1, 0, 0, 0, 0), Fraction(5)), 3)    # gamma^3 = 0
@example((J2, (1, 0, 1, 0, 0, 0), Fraction(2)), 0)    # any base to the 0 is 1
def test_monomial_power_matches_square_and_multiply(case, n):
    preset, mono, coeff = case
    base = preset.element({mono: coeff})
    assert base ** n == _square_and_multiply(base, n)


def test_monomial_power_on_the_universal_curve():
    preset = preset_universal_curve(3)
    rng = random.Random(5)
    for _ in range(40):
        mono = (rng.randint(0, 4), rng.randint(0, 4))
        base = preset.element({mono: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))})
        n = rng.randint(0, 9)
        assert base ** n == _square_and_multiply(base, n)


@pytest.mark.parametrize("preset,name", [
    (preset_jacobian_product(3, 2, 1), "gamma"),
    (preset_jacobian_product(3, 2, 1), "c2"),
    (preset_surface_product(3), "Delta"),
    (preset_universal_curve(3), "omega"),
])
def test_a_one_term_power_takes_no_product(monkeypatch, preset, name):
    base = Fraction(-2, 3) * preset.gen(name)
    products = []
    multiply = RingElem.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counted)
    monkeypatch.setattr(RingElem, "__rmul__", counted)
    powers = [base ** n for n in range(6)]
    assert products == []
    assert powers[0] == preset.one() and powers[1] == base


@pytest.mark.parametrize("preset,name", [
    (preset_jacobian_product(3, 2, 0), "theta"),
    (preset_surface_product(3), "F1"),
])
def test_a_truncated_monomial_power_never_raises_its_coefficient(preset, name):
    raised = []

    class Recorded(int):
        # a numerator that records every power it is raised to
        def __pow__(self, exponent, modulo=None):
            raised.append(exponent)
            return int(self) ** exponent

    ((mono, _),) = preset.gen(name).numerators
    base = RingElem(preset, ((mono, Recorded(2)),), 1)
    assert base == 2 * preset.gen(name)
    assert (base ** 10 ** 8).is_zero()
    assert raised == []
    gen = preset.gen(name)
    assert base ** 2 == 4 * gen * gen and not (gen * gen).is_zero()
    assert raised == [2]


# -- integer numerators over one denominator ---------------------------------

ORACLE_PRESETS = (
    preset_jacobian_product(1, 1, 0),
    preset_jacobian_product(2, 3, 1),
    preset_jacobian_product(3, 4, 0),
    preset_jacobian_product(2, 4, 3),  # 8 generators: eta, gamma, theta, c1..c4, k
    preset_surface_product(2),
    preset_surface_product(4),
    preset_universal_curve(3),
)

rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9)))


@st.composite
def oracle_cases(draw):
    preset = draw(st.sampled_from(ORACLE_PRESETS))
    if preset.kind == "jacobian":
        g = preset.param("g")
        exponents = [st.integers(0, 2), st.integers(0, 3), st.integers(0, g + 1)]
        exponents += [st.integers(0, 1)] * (len(preset.names) - 3)
    else:
        exponents = [st.integers(0, 2)] * len(preset.names)
    coefficients = rationals | st.integers(-5, 5)

    def raw(max_size):
        return draw(st.dictionaries(st.tuples(*exponents), coefficients, max_size=max_size))

    return (preset, raw(4), raw(4), raw(1) or {(0,) * len(preset.names): 3},
            draw(rationals), draw(rationals.filter(bool)), draw(st.integers(0, 5)),
            draw(st.integers(0, 3)))


def _canonical(elem):
    """Assert the canonical form and return ``elem``."""
    den, nums = elem.denominator, elem.numerators
    assert den > 0 and math.gcd(den, *(n for _, n in nums)) == 1
    assert all(n != 0 for _, n in nums)
    monos = [m for m, _ in nums]
    assert monos == sorted(set(monos), reverse=True)
    rebuilt = elem.preset.element(dict(elem.terms))
    assert rebuilt == elem and hash(rebuilt) == hash(elem)
    return elem


def _agrees(elem, model):
    _canonical(elem)
    assert elem.terms == model_terms(model)
    assert elem.render() == model_render(elem.preset, model)


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_arithmetic_matches_the_fraction_model(case):
    preset, raw_a, raw_b, raw_t, scalar, constant, n, degree = case
    a, b, t = (preset.element(raw) for raw in (raw_a, raw_b, raw_t))
    # a one-term constant element, multiplied element by element
    c = preset.element({(0,) * len(preset.names): constant})
    ma, mb, mt = (model_normalize(preset, raw.items()) for raw in (raw_a, raw_b, raw_t))
    _agrees(a, ma)
    _agrees(b, mb)
    _agrees(a + b, model_add(ma, mb))
    _agrees(a - b, model_add(ma, mb, -1))
    _agrees(-a, model_scale(ma, -1))
    _agrees(scalar * a, model_scale(ma, scalar))
    _agrees(a * scalar, model_scale(ma, scalar))
    _agrees(c * a, model_scale(ma, constant))
    _agrees(a * c, model_scale(ma, constant))
    _agrees(a * b, model_mul(preset, ma, mb))
    _agrees(a ** n, model_pow(preset, ma, n))
    _agrees(t ** n, model_pow(preset, mt, n))
    _agrees(a.homogeneous_part(degree), model_homogeneous_part(preset, ma, degree))
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)


def test_ring_arithmetic_builds_no_fraction(fraction_builds):
    uc = preset_universal_curve(3)
    omega, lam = gens(uc, "omega", "lambda")
    a = Fraction(3, 4) * omega * omega - Fraction(2, 9) * omega * lam + Fraction(5, 6)
    b = Fraction(-1, 4) * omega * lam + Fraction(7, 3) * lam + 2 * omega
    with fraction_builds() as built:
        product, total = a * b, a + b
        rendered = product.render()
    assert built == []
    assert rendered == model_render(uc, dict(product.terms))
    ma, mb = dict(a.terms), dict(b.terms)
    assert product.terms == model_terms(model_mul(uc, ma, mb))
    assert total.terms == model_terms(model_add(ma, mb))


JAC3, UC3 = preset_jacobian_product(3, 2, 0), preset_universal_curve(3)
SURFACE3 = preset_surface_product(3)


@pytest.mark.parametrize("call,message", [
    (lambda: JAC3.gen("theta") ** -1, "ring exponents are nonnegative integers"),
    (lambda: JAC3.gen("theta") ** 1.5, "ring exponents are nonnegative integers"),
    (lambda: geometric_series(UC3.gen("omega")), "geometric series needs a truncated preset"),
    (lambda: geometric_series(JAC3.gen("c1")),
     "geometric series did not terminate: non-nilpotent argument"),
    (lambda: adjunction_genus(UC3.gen("omega")), "adjunction is defined on the surface preset"),
    (lambda: adjunction_genus(SURFACE3.zero()), "adjunction needs a nonzero degree-1 curve class"),
    (lambda: adjunction_genus(SURFACE3.gen("F1") * SURFACE3.gen("F2") + SURFACE3.gen("F1")),
     "adjunction needs a nonzero degree-1 curve class"),
    (lambda: adjunction_genus(SURFACE3.gen("F1") * SURFACE3.gen("F2")),
     "adjunction needs a nonzero degree-1 curve class"),
    (lambda: surface_canonical_class(JAC3), "canonical class is defined on the surface preset"),
    (lambda: JAC3.index("omega"), "no generator 'omega' in preset jacobian(g=3,d=2,r=0)"),
    (lambda: UC3.param("d"), "no parameter 'd' in preset universal-curve(g=3)"),
], ids=["pow-negative", "pow-float", "series-untruncated", "series-c1", "adjunction-uc",
        "adjunction-zero", "adjunction-mixed-degree", "adjunction-degree-2",
        "canonical-jac", "index-omega", "param-d"])
def test_ring_refusals_name_their_input(call, message):
    with pytest.raises(RingDomainError) as refusal:
        call()
    assert type(refusal.value) is RingDomainError and str(refusal.value) == message


def test_preset_mismatch_is_an_error(jac11):
    other = preset_jacobian_product(12, 14, 4)
    with pytest.raises(PresetMismatchError):
        jac11.gen("eta") * other.gen("eta")


def test_confluence_on_random_products(jac11):
    rng = random.Random(1234)
    names = jac11.names
    for _ in range(200):
        def random_elem():
            elem = jac11.zero()
            for _ in range(rng.randint(1, 4)):
                mono = jac11.one()
                for _ in range(rng.randint(0, 4)):
                    mono = mono * jac11.gen(rng.choice(names))
                elem = elem + rng.randint(-5, 5) * mono
            return elem
        a, b = random_elem(), random_elem()
        assert a * b == b * a


def test_grading_is_additive(jac11):
    rng = random.Random(4321)
    names = jac11.names
    for _ in range(50):
        def random_monomial(target):
            mono = jac11.one()
            degree = 0
            while degree < target:
                name = rng.choice(names)
                gen_degree = jac11.degrees[jac11.index(name)]
                if degree + gen_degree > target:
                    continue
                mono = mono * jac11.gen(name)
                degree += gen_degree
            return mono
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_monomial(da), random_monomial(db)
        product = a * b
        if not product.is_zero():
            assert product.is_homogeneous()
            assert product.degree() == da + db


# -- integration ------------------------------------------------------------

def test_integrate_top_monomial(jac11):
    eta, theta = gens(jac11, "eta", "theta")
    assert integrate(eta * theta ** 11) == math.factorial(11)


def test_integrate_kills_gamma_monomials(jac11):
    gamma, theta = gens(jac11, "gamma", "theta")
    assert integrate(gamma * theta ** 11) == 0


def test_integrate_gamma_squared_two_step_oracle(jac11):
    # oracle: gamma^2 theta^10 -> -2 eta theta^11 by the relation, then
    # the normalization integral of eta theta^g is g!.
    gamma, theta = gens(jac11, "gamma", "theta")
    assert integrate(gamma * gamma * theta ** 10) == -2 * math.factorial(11)
    assert integrate(gamma * gamma * theta ** 10) == -79833600


def test_integrate_refuses_chern_classes(jac11):
    eta, c1 = gens(jac11, "eta", "c1")
    with pytest.raises(RingDomainError):
        integrate(eta * c1)


def test_integrate_linearity(jac11):
    rng = random.Random(55)
    eta, gamma, theta = gens(jac11, "eta", "gamma", "theta")
    # every candidate is top-degree: integrate refuses any other degree
    candidates = [eta * theta ** 11, gamma * theta ** 11, theta ** 12,
                  gamma * gamma * theta ** 10]
    for _ in range(30):
        a, b = rng.choice(candidates), rng.choice(candidates)
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert integrate(s * a + t * b) == s * integrate(a) + t * integrate(b)


def test_integrate_refuses_off_degree_and_mixed_input(jac11):
    f1, delta = gens(preset_surface_product(3), "F1", "Delta")
    eta, theta = gens(preset_jacobian_product(3, 2, 0), "eta", "theta")
    theta11 = jac11.gen("theta")
    omega = preset_universal_curve(5).gen("omega")
    for elem in (f1, delta * delta + f1, eta * theta ** 2, theta11 ** 12 + theta11, omega):
        with pytest.raises(RingDomainError, match="no top-degree pairing"):
            integrate(elem)


def test_a_preset_never_integrated_never_computes_g_factorial(monkeypatch):
    # g! is costly for a large g, so the Jacobian table is not built with
    # the preset
    calls = []
    monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or 6)
    preset = preset_jacobian_product(3, 2, 0)
    eta, theta = gens(preset, "eta", "theta")
    assert (eta * theta ** 2).render() == "eta*theta^2" and calls == []
    assert integrate(2 * eta * theta ** 3) == 12 and calls == [3]


def test_generators_names_what_occurs(jac11):
    eta, theta, c2, k = gens(jac11, "eta", "theta", "c2", "k")
    assert (eta * theta + 3 * c2 * k).generators() == {"eta", "theta", "c2", "k"}
    assert (eta * theta ** 11).generators() == {"eta", "theta"}
    assert jac11.one().generators() == set()
    assert jac11.zero().generators() == set()


# -- surface preset ---------------------------------------------------------

def test_surface_pairings():
    surface = preset_surface_product(3)
    f1, f2, delta = gens(surface, "F1", "F2", "Delta")
    assert integrate(f1 * f2) == 1
    assert integrate(delta * f1) == 1
    assert integrate(delta * f2) == 1
    assert integrate(f1 * f1) == 0


def test_surface_diagonal_self_intersection_euler_oracle():
    # oracle: the diagonal squares to the Euler characteristic 2 - 2g
    for g in (3, 5, 9):
        surface = preset_surface_product(g)
        delta = surface.gen("Delta")
        assert integrate(delta * delta) == 2 - 2 * g
    assert integrate(preset_surface_product(3).gen("Delta") ** 2) == -4


def test_adjunction_fiber_and_diagonal_give_base_genus():
    for g in range(2, 31):
        surface = preset_surface_product(g)
        assert adjunction_genus(surface.gen("Delta")) == g
        assert adjunction_genus(surface.gen("F1")) == g
        assert adjunction_genus(surface.gen("F2")) == g


def test_adjunction_scorza_class_genus_3():
    surface = preset_surface_product(3)
    f1, f2, delta = gens(surface, "F1", "F2", "Delta")
    t = 2 * (f1 + f2) + delta
    assert adjunction_genus(t) == 19


def test_adjunction_rejects_non_integral_genus():
    surface = preset_surface_product(4)
    with pytest.raises(RingDomainError):
        adjunction_genus(Fraction(1, 2) * surface.gen("F1"))


# -- universal curve --------------------------------------------------------

def test_pushforward_relative_closed_form():
    for g in range(3, 31):
        uc = preset_universal_curve(g)
        omega, lam = gens(uc, "omega", "lambda")
        integrand = Fraction(3, 4) * omega * omega - 2 * omega * (Fraction(-1, 4) * lam)
        assert integrate(integrand) == g + 8


def test_pushforward_relative_rules():
    # integrate on the universal curve is the relative push-forward to the
    # lambda coefficient
    uc = preset_universal_curve(5)
    omega, lam = gens(uc, "omega", "lambda")
    assert integrate(lam * lam) == 0
    assert integrate(omega * omega) == 12
    assert integrate(omega * lam) == 8
    with pytest.raises(RingDomainError):
        integrate(omega)


# -- rendering --------------------------------------------------------------

def test_canonical_rendering(jac11):
    eta, gamma, theta = gens(jac11, "eta", "gamma", "theta")
    series = 1 + 48 * eta + 2 * gamma - 6 * eta * theta
    assert series.render() == "-6*eta*theta + 48*eta + 2*gamma + 1"


def test_inspection_of_absent_terms_and_of_zero(jac11):
    eta, theta = gens(jac11, "eta", "theta")
    elem = Fraction(3, 4) * eta * theta - 2 * theta
    assert elem.coefficient((0,) * len(jac11.names)) == 0  # no constant term
    assert jac11.zero().degree() is None
    assert str(elem) == elem.render() == "3/4*eta*theta - 2*theta"


# -- preset preconditions ----------------------------------------------------

def test_preset_parameter_validation():
    from oddspin.errors import PreconditionError
    with pytest.raises(PreconditionError):
        preset_jacobian_product(0, 14, 4)
    with pytest.raises(PreconditionError):
        preset_jacobian_product(11, -1, 4)
    with pytest.raises(PreconditionError):
        preset_surface_product(1)
    with pytest.raises(PreconditionError):
        preset_universal_curve(1)
