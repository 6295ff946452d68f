import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspin.errors import ExprSyntaxError, PreconditionError
from oddspin.exprparse import expr_to_class, expr_to_ring, parse_expression
from oddspin.picard import DivisorClass, PicBasis, moduli_basis, spin_basis
from oddspin.ring import (
    RingElem,
    RingPreset,
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
)
from oracles import (
    model_add,
    model_mul,
    model_normalize,
    model_pow,
    model_scale,
    model_terms,
)


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
    # inside a linear sum the name keeps its own offset; a syntax error after
    # it still wins
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("2*eta - 1/3*zeta + theta", jac)
    assert (err.value.message, err.value.position) == (
        "unknown name 'zeta' in jacobian(g=11,d=14,r=4)", 12)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("(2*eta - 1/3*zeta + theta)*(eta", jac)
    assert (err.value.message, err.value.position) == ("unbalanced parentheses: expected ')'", 31)
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
SPIN_7 = spin_basis(7)


def evaluate(text, context):
    """The rendered value of ``text``, or the (message, position) of its refusal."""
    try:
        expr = parse_expression(text, context)
        if isinstance(context, PicBasis):
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
    # linear sums: repeated generators that cancel, constant terms, zero
    # literals and nested one-term groups, in the ring and in a Picard basis
    (JAC_3, "2*eta - eta - eta", "0"),
    (JAC_3, "1/2 + eta - 3/4", "eta - 1/4"),
    (JAC_3, "3*theta - 0/5 + 0/5*gamma", "3*theta"),
    (JAC_3, "((2*eta))*theta", "2*eta*theta"),
    (JAC_3, "(eta - 1/2*eta)^2 + (2 - 3)^3", "-1"),
    (JAC_3, "2*eta - 1/3*zeta + theta^", (EXPONENT, 25)),
    (MODULI_5, "delta0 - 2*lambda + 1/3*delta0 - delta0", "-2*lambda + 1/3*delta0"),
    (MODULI_5, "lambda - lambda + 2 - 2", "0"),
    (MODULI_5, "lambda + 1 - 1/2", ("constant terms do not belong to a divisor class", 0)),
    (MODULI_5, "((2*delta1))", "2*delta1"),
    (MODULI_5, "0/5*lambda + delta2 - 0/5", "delta2"),
    (SPIN_7, "2*alpha0 - 1/2*beta3 + alpha0 - 3*alpha0", "-1/2*beta3"),
    (SPIN_7, "lambda - 12*alpha0 + alpha1 - 1/2*lambda", "1/2*lambda - 12*alpha0 + alpha1"),
    (SPIN_7, "delta0 + lambda", ("unknown name 'delta0' in spin(g=7)", 0)),
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


def count_calls(monkeypatch, *methods):
    """A list that records the name of each call to the (owner, name) methods."""
    calls = []
    for owner, name in methods:
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _call=getattr(owner, name):
                            calls.append(_name) or _call(*args))
    return calls


def test_a_linear_form_is_one_step_and_one_accumulation(monkeypatch, fraction_builds):
    # each parenthesised linear form is one ``lin`` step, summed as ints over
    # the lcm of its denominators: only the product of the two forms is a
    # ring product, and no literal becomes a Fraction or a ring element
    expr = parse_expression("(4/3*eta - gamma + 2*theta)*(-3/2*eta - theta)", JAC_3)
    assert [kind for kind, _, _ in expr.steps] == ["lin", "lin", "*"]
    calls = count_calls(monkeypatch, (RingElem, "__mul__"), (RingPreset, "weighted_sum"))
    with fraction_builds() as built:
        elem = expr_to_ring(expr, JAC_3)
    assert calls == ["__mul__"]
    assert built == []
    assert elem.render() == "-13/3*eta*theta + gamma*theta - 2*theta^2"


def test_a_one_term_power_raises_its_monomial_once(jac, monkeypatch):
    calls = count_calls(monkeypatch, (RingElem, "__pow__"))
    elem = expr_to_ring(parse_expression("(2/3*theta)^5", jac), jac)
    assert calls == ["__pow__"]
    assert elem.render() == "32/243*theta^5"
    assert expr_to_ring(parse_expression("eta^2", jac), jac).is_zero()


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


SUM, PRODUCT, POWER, ATOM = range(4)  # how tightly an operand's text binds


def expressions(names, literal, generator, add, multiply, power):
    """(text, model, binding) triples of sums, products, powers and groups of
    literals and generators, with the model operations given.  An operand is
    grouped only where the grammar needs it, so ungrouped linear sums such as
    ``2*eta - 1/3*gamma + 1`` occur, and a group may hold one operand."""
    def grouped(operand, binding):
        return operand[0] if operand[2] >= binding else f"({operand[0]})"

    def total(first, rest):
        text = grouped(first, PRODUCT) + "".join(
            f" {'+' if sign > 0 else '-'} {grouped(term, PRODUCT)}" for sign, term in rest)
        model = first[1]
        for sign, term in rest:
            model = add(model, term[1], sign)
        return text, model, SUM

    def extend(operands):
        signed = st.tuples(st.sampled_from((1, -1)), operands)
        return st.one_of(
            st.tuples(operands, st.lists(signed, min_size=1, max_size=2)).map(
                lambda args: total(*args)),
            # a right factor is never a bare product: '*' is read from the left
            st.tuples(operands, operands).map(lambda pair: (
                f"{grouped(pair[0], PRODUCT)}*{grouped(pair[1], POWER)}",
                multiply(pair[0][1], pair[1][1]), PRODUCT)),
            st.tuples(operands, st.integers(0, 3)).map(lambda pair: (
                f"{grouped(pair[0], ATOM)}^{pair[1]}", power(pair[0][1], pair[1]), POWER)),
            operands.map(lambda operand: (f"({operand[0]})", operand[1], ATOM)),
        )

    leaves = st.one_of(literals().map(lambda lit: (lit[0], literal(lit[1]), ATOM)),
                       st.sampled_from(names).map(lambda name: (name, generator(name), ATOM)))
    return st.recursive(leaves, extend, max_leaves=5)


def ring_expressions(preset):
    """``expressions`` over a ring preset, modelled by dicts of Fractions."""
    def atom(mono, value):
        return model_normalize(preset, [(mono, value)])

    return expressions(
        preset.names, lambda value: atom((0,) * len(preset.names), value),
        lambda name: atom(tuple(int(name == other) for other in preset.names), 1),
        model_add, lambda a, b: model_mul(preset, a, b), lambda a, n: model_pow(preset, a, n))


PRODUCTS = "products of divisor-class generators are not defined"
POWERS = "powers of divisor-class generators are not defined"


def class_expressions(basis):
    """``expressions`` over a Picard basis, modelled by (constant, {name:
    coefficient}) pairs, or by the message of the refusal that the first
    offending product or power, in the order the program runs, raises."""
    def refusal(*models):
        return next((model for model in models if isinstance(model, str)), None)

    def add(a, b, sign):
        return refusal(a, b) or (a[0] + sign * b[0], model_add(a[1], b[1], sign))

    def multiply(a, b):
        if refusal(a, b) or (a[1] and b[1]):
            return refusal(a, b) or PRODUCTS
        return a[0] * b[0], model_add(model_scale(a[1], b[0]), model_scale(b[1], a[0]))

    def power(a, n):
        if refusal(a) or not a[1]:
            return refusal(a) or (a[0] ** n, {})
        return a if n == 1 else POWERS

    return expressions(basis.names, lambda value: (value, {}),
                       lambda name: (Fraction(0), {name: Fraction(1)}), add, multiply, power)


@pytest.mark.parametrize("context", [JAC_3, preset_surface_product(3), preset_universal_curve(3),
                                     SPIN_7, MODULI_5],
                         ids=["jac", "surface", "uc", "spin", "moduli"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_literals_evaluate_as_the_fraction_model(context, data):
    if isinstance(context, RingPreset):
        text, model, _ = data.draw(ring_expressions(context))
        elem = expr_to_ring(parse_expression(text, context), context)
        assert elem.terms == model_terms(model)
        assert elem == context.element(model)  # the same canonical numerators and denominator
        return
    text, model, _ = data.draw(class_expressions(context))
    if not isinstance(model, str) and model[0]:
        model = "constant terms do not belong to a divisor class"
    try:
        cls = expr_to_class(parse_expression(text, context), context)
    except ExprSyntaxError as refused:
        assert refused.message == model
    else:
        assert cls == DivisorClass.from_mapping(context, model[1])
