import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspin.errors import ExprSyntaxError, PreconditionError
from oddspin.exprparse import expr_to_class, expr_to_ring, parse_expression
from oddspin.picard import DivisorClass, moduli_basis, spin_basis
from oddspin.ring import (
    RingElem,
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
)
from oracles import model_add, model_mul, model_normalize, model_pow, model_terms


@pytest.fixture(scope="module")
def jac():
    return preset_jacobian_product(11, 14, 4)


def test_gamma_squared_theta_normalizes(jac):
    expr = parse_expression("gamma^2*theta", jac)
    elem = expr_to_ring(expr, jac)
    eta, theta = jac.gen("eta"), jac.gen("theta")
    assert elem == -2 * eta * theta * theta
    assert elem.render() == "-2*eta*theta^2"


def test_spin_basis_linear_functional():
    basis = spin_basis(7)
    expr = parse_expression("lambda - 12*alpha0 + alpha1", basis)
    cls = expr_to_class(expr, basis)
    assert cls == DivisorClass.from_mapping(
        basis, {"lambda": 1, "alpha0": -12, "alpha1": 1}
    )


def test_zero_denominator_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("1/0", spin_basis(5))
    assert err.value.position == 2


def test_unknown_name_reports_position(jac):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("eta*zeta", jac)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expression("c7", jac)  # rank stops at c5
    with pytest.raises(ExprSyntaxError):
        parse_expression("delta0", spin_basis(5))


@pytest.mark.parametrize("context", [None, "uc:g=3", moduli_basis(5).names])
def test_a_wrong_context_is_a_precondition_error(context):
    with pytest.raises(PreconditionError) as refusal:
        parse_expression("lambda", context)
    assert type(refusal.value) is PreconditionError
    assert str(refusal.value) == "context must be a RingPreset or a PicBasis"


def test_unbalanced_parentheses(jac):
    with pytest.raises(ExprSyntaxError):
        parse_expression("(eta + theta", jac)
    with pytest.raises(ExprSyntaxError):
        parse_expression("eta + theta)", jac)


def test_unary_minus_only_before_literals(jac):
    expr = parse_expression("-6*eta*theta + 48*eta", jac)
    elem = expr_to_ring(expr, jac)
    eta, theta = jac.gen("eta"), jac.gen("theta")
    assert elem == -6 * eta * theta + 48 * eta
    with pytest.raises(ExprSyntaxError):
        parse_expression("-eta", jac)


def test_rational_literals(jac):
    expr = parse_expression("-32/3*theta^3", jac)
    elem = expr_to_ring(expr, jac)
    assert elem == Fraction(-32, 3) * jac.gen("theta") ** 3


def test_products_of_divisor_generators_rejected():
    basis = moduli_basis(5)
    with pytest.raises(ExprSyntaxError):
        expr_to_class(parse_expression("delta0*delta1", basis), basis)
    with pytest.raises(ExprSyntaxError):
        expr_to_class(parse_expression("lambda^2", basis), basis)
    with pytest.raises(ExprSyntaxError):
        expr_to_class(parse_expression("lambda + 1", basis), basis)


def test_surface_names():
    surface = preset_surface_product(4)
    expr = parse_expression("3*(F1 + F2) + Delta", surface)
    elem = expr_to_ring(expr, surface)
    assert elem == 3 * (surface.gen("F1") + surface.gen("F2")) + surface.gen("Delta")


def random_ring_elem(preset, rng):
    elem = preset.zero()
    for _ in range(rng.randint(1, 5)):
        coeff = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        mono = preset.one()
        for _ in range(rng.randint(0, 4)):
            mono = mono * preset.gen(rng.choice(preset.names))
        elem = elem + coeff * mono
    return elem


def test_ring_render_parse_round_trip(jac):
    rng = random.Random(777)
    for _ in range(80):
        elem = random_ring_elem(jac, rng)
        text = elem.render()
        back = expr_to_ring(parse_expression(text, jac), jac)
        assert back == elem
        assert back.render() == text


def test_class_render_parse_round_trip():
    rng = random.Random(778)
    for g in (3, 7, 12):
        basis = spin_basis(g)
        for _ in range(30):
            coeffs = {
                name: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                for name in basis.names if rng.random() < 0.7
            }
            cls = DivisorClass.from_mapping(basis, coeffs)
            text = cls.render()
            if text == "0":
                assert cls.is_zero()
                continue
            back = expr_to_class(parse_expression(text, basis), basis)
            assert back == cls
            assert back.render() == text


JAC_3 = preset_jacobian_product(3, 2, 0)
MODULI_5 = moduli_basis(5)


def evaluate(text, context):
    """The rendered value of ``text``, or the (message, position) of its refusal."""
    try:
        expr = parse_expression(text, context)
        if context is MODULI_5:
            return expr_to_class(expr, context).render()
        return expr_to_ring(expr, context).render()
    except ExprSyntaxError as err:
        return err.message, err.position


UNBALANCED = "unbalanced parentheses: expected ')'"
EXPONENT = "expected a nonnegative integer exponent"


@pytest.mark.parametrize("context,text,expected", [
    (JAC_3, "eta^2^3", ("unexpected trailing input '^'", 5)),
    (JAC_3, "(eta^2^3)", (UNBALANCED, 6)),
    (JAC_3, "((eta)^2^3)", (UNBALANCED, 8)),
    (JAC_3, "eta theta", ("unexpected trailing input 'theta'", 4)),
    (JAC_3, "(eta theta", (UNBALANCED, 5)),
    (JAC_3, "eta + theta)", ("unexpected trailing input ')'", 11)),
    (JAC_3, "2/3/4", ("unexpected trailing input '/'", 3)),
    (JAC_3, "eta/2", ("unexpected trailing input '/'", 3)),
    (JAC_3, "zeta + (", ("unexpected token ''", 8)),
    (JAC_3, "1/", ("expected a denominator", 2)),
    (JAC_3, "1/0", ("zero denominator in rational literal", 2)),
    (JAC_3, "theta^", (EXPONENT, 6)),
    (JAC_3, "theta^-1", (EXPONENT, 6)),
    (JAC_3, "eta^(2)", (EXPONENT, 4)),
    (JAC_3, "", ("unexpected token ''", 0)),
    (JAC_3, "(", ("unexpected token ''", 1)),
    (JAC_3, ")", ("unexpected token ')'", 0)),
    (JAC_3, "-eta", ("'-' may only prefix an integer literal here", 0)),
    (JAC_3, "2 - - eta", ("'-' may only prefix an integer literal here", 4)),
    (JAC_3, "eta*+theta", ("unexpected token '+'", 4)),
    (JAC_3, "eta $ theta", ("unexpected character '$'", 4)),
    (JAC_3, "eta*zeta + (", ("unexpected token ''", 12)),
    (JAC_3, "eta*zeta", ("unknown name 'zeta' in jacobian(g=3,d=2,r=0)", 4)),
    (JAC_3, "-3^2", "9"),
    (JAC_3, "2--3", "5"),
    (JAC_3, "2*-3 - 1/2", "-13/2"),
    (JAC_3, "((theta))^2*(eta - 1)^1", "eta*theta^2 - theta^2"),
    (MODULI_5, "lambda^2", ("powers of divisor-class generators are not defined", 6)),
    (MODULI_5, "delta0*delta1", ("products of divisor-class generators are not defined", 6)),
    (MODULI_5, "lambda + 1", ("constant terms do not belong to a divisor class", 0)),
    (MODULI_5, "(2*lambda)^1", "2*lambda"),
    (MODULI_5, "(1 - 1)^0*delta0 - 2^2*(delta1 - lambda)", "4*lambda + delta0 - 4*delta1"),
    # only ASCII digits, letters and whitespace: '\u00b2' is a superscript
    # two, '\u0663' an Arabic-Indic three, '\uff10' a full-width zero
    (JAC_3, "\u00b2", ("unexpected character '\u00b2'", 0)),
    (JAC_3, "2*\u00b2", ("unexpected character '\u00b2'", 2)),
    (JAC_3, "theta^\u00b2", ("unexpected character '\u00b2'", 6)),
    (JAC_3, "3/\u00b2", ("unexpected character '\u00b2'", 2)),
    (JAC_3, "\u0663*theta", ("unexpected character '\u0663'", 0)),
    (JAC_3, "c\u0663", ("unexpected character '\u0663'", 1)),
    (JAC_3, "\u03b8 + eta", ("unexpected character '\u03b8'", 0)),
    (JAC_3, "eta\u00a0+ theta", ("unexpected character '\\xa0'", 3)),
    (JAC_3, "eta\t+\ntheta", "eta + theta"),
    (MODULI_5, "delta\uff10", ("unexpected character '\uff10'", 5)),
])
def test_every_parser_path_gives_its_value_or_refusal(context, text, expected):
    assert evaluate(text, context) == expected


FUZZ_WORDS = ("eta", "theta", "zeta", "2", "3", "0", "1/2", "-", "+", "*", "^",
              "(", ")", "/", "$", "c1", "k", " ", "\u00b2", "\u0663", "\u03b8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(FUZZ_WORDS),
                          st.integers(1, 10 ** 4).map("(".__mul__),
                          st.text(max_size=3)),
                max_size=40).map("".join))
def test_parser_refuses_only_with_an_offset_inside_the_input(text):
    # any other exception fails the test
    try:
        parse_expression(text, JAC_3)
    except ExprSyntaxError as err:
        assert 0 <= err.position <= len(text)


@pytest.mark.parametrize("preset", [preset_surface_product(4), preset_universal_curve(5)],
                         ids=["surface", "uc"])
def test_ring_render_parse_round_trip_on_surface_and_uc(preset):
    rng = random.Random(779)
    for _ in range(80):
        elem = random_ring_elem(preset, rng)
        text = elem.render()
        back = expr_to_ring(parse_expression(text, preset), preset)
        assert back == elem
        assert back.render() == text


def test_class_render_parse_round_trip_on_the_moduli_basis():
    rng = random.Random(780)
    for g in (3, 8, 12):
        basis = moduli_basis(g)
        for _ in range(30):
            cls = DivisorClass.from_mapping(basis, {
                name: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                for name in basis.names if rng.random() < 0.7
            })
            text = cls.render()
            if text == "0":
                continue
            back = expr_to_class(parse_expression(text, basis), basis)
            assert back == cls
            assert back.render() == text


def test_a_long_sum_is_normalised_once(monkeypatch):
    uc = preset_universal_curve(3)
    text = " + ".join(f"omega^{i}*lambda^{j}" for i in range(80) for j in range(100))
    expr = parse_expression(text, uc)
    sums = []
    init = RingElem.__init__

    def counted(self, preset, numerators, denominator):
        if len(numerators) > 1:
            sums.append(len(numerators))
        init(self, preset, numerators, denominator)

    monkeypatch.setattr(RingElem, "__init__", counted)
    assert len(expr_to_ring(expr, uc).terms) == 8000
    # one element holds the whole sum; no partial sum is built on the way
    assert sums == [8000]


@pytest.mark.parametrize("text", [
    "4/6*omega^2 - 0/5*lambda + -12/8*omega*lambda", "(2/4*omega + 3/6)^3", "2^3*omega^2",
])
def test_ring_literals_build_no_fraction(fraction_builds, text):
    uc = preset_universal_curve(3)
    with fraction_builds() as built:
        expr_to_ring(parse_expression(text, uc), uc)
    assert built == []


@st.composite
def literals(draw):
    """The text and value of a literal: signed or not, zero, multi-digit,
    unreduced, with leading zeros."""
    common = draw(st.sampled_from((1, 2, 6, 10 ** 9)))
    numerator = draw(st.one_of(st.integers(0, 12), st.integers(10 ** 12, 10 ** 20))) * common
    text, value = "0" * draw(st.integers(0, 2)) + str(numerator), Fraction(numerator)
    if draw(st.booleans()):
        denominator = draw(st.integers(1, 10 ** 6)) * common
        text, value = f"{text}/{denominator}", value / denominator
    if draw(st.booleans()):
        text, value = f"-{text}", -value
    return text, value


def ring_expressions(preset):
    """(text, dict-of-Fraction model, is an atom) triples of sums, products
    and powers of literals and generators; a compound operand is grouped."""
    def unit(name):
        return tuple(int(name == other) for other in preset.names)

    def atom(text, mono, value):
        return text, model_normalize(preset, [(mono, value)]), True

    def grouped(operand):
        return operand[0] if operand[2] else f"({operand[0]})"

    def total(first, rest):
        text = grouped(first) + "".join(
            f" {'+' if sign > 0 else '-'} {grouped(term)}" for sign, term in rest)
        model = first[1]
        for sign, term in rest:
            model = model_add(model, term[1], sign)
        return text, model, False

    def extend(operands):
        signed = st.tuples(st.sampled_from((1, -1)), operands)
        return st.one_of(
            st.tuples(operands, st.lists(signed, min_size=1, max_size=2)).map(
                lambda args: total(*args)),
            st.tuples(operands, operands).map(lambda pair: (
                f"{grouped(pair[0])}*{grouped(pair[1])}",
                model_mul(preset, pair[0][1], pair[1][1]), False)),
            st.tuples(operands, st.integers(0, 3)).map(lambda pair: (
                f"{grouped(pair[0])}^{pair[1]}", model_pow(preset, pair[0][1], pair[1]), False)),
        )

    constant = (0,) * len(preset.names)
    leaves = st.one_of(literals().map(lambda lit: atom(lit[0], constant, lit[1])),
                       st.sampled_from(preset.names).map(lambda name: atom(name, unit(name), 1)))
    return st.recursive(leaves, extend, max_leaves=5)


@pytest.mark.parametrize("preset", [JAC_3, preset_surface_product(3), preset_universal_curve(3)],
                         ids=["jac", "surface", "uc"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_literals_evaluate_as_the_fraction_model(preset, data):
    text, model, _ = data.draw(ring_expressions(preset))
    elem = expr_to_ring(parse_expression(text, preset), preset)
    assert elem.terms == model_terms(model)
    assert elem == preset.element(model)  # the same canonical numerators and denominator
