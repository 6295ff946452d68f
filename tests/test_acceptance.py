"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every check is exact; there are no tolerances anywhere.
"""
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oddspin.bn import (
    bn_context,
    evaluate_taut,
    evaluate_taut_recursion,
    jet_bundle_inverse_chern,
    restrict_to_locus,
)
from oddspin.cli import run_command
from oddspin.errors import PreconditionError
from oddspin.exprparse import expr_to_ring, parse_expression
from oddspin.genus12 import (
    SIDE_X,
    SIDE_Y,
    context,
    d12_coefficients,
    d12_slope_report,
    side,
)
from oddspin.numerics import (
    boundary_degrees,
    scorza_genus,
    theta_counts,
)
from oddspin.picard import (
    MODULI,
    SPIN,
    DivisorClass,
    canonical_class,
    certificate,
    combine,
    covering_degree,
    degenerate_theta_lambda_coefficient,
    moduli_basis,
    pair,
    pullback,
    pushforward,
    solve_zg,
    spin_basis,
    theta_pencil_profile,
    zg_class,
)
from oddspin.picard import test_curve as boundary_curve
from oddspin.ring import integrate

from oracles import laplace_det, recip_factorial_rows


def report(n, message):
    print(f"ACCEPTANCE {n:>2}: PASS - {message}")


def ambient_integrand(name):
    record = side(name)
    return restrict_to_locus(context(), record.integrand, record.source)


def test_criterion_01_genus12_pipeline():
    ctx = context()
    total_x = evaluate_taut(ctx, ambient_integrand(SIDE_X))
    total_y = evaluate_taut(ctx, ambient_integrand(SIDE_Y))
    a, b0, b1 = d12_coefficients()
    assert b1 == 9867
    assert total_x == 20 * 9867
    assert total_y == 32505 == 22 * b0 - b1
    assert b0 == 1926
    assert a - 12 * b0 + b1 == 0
    assert a == 13245
    rep = d12_slope_report()
    assert rep.slope == Fraction(4415, 642)
    assert 4415 * 13 < 642 * 90  # exact cross-multiplication
    assert rep.violates_slope_conjecture
    report(1, "b1 = 9867, total 32505, b0 = 1926, a = 13245, slope 4415/642 < 90/13")


def test_criterion_02_gap_identity():
    assert Fraction(4415, 642) - Fraction(41, 6) == Fraction(14, 321)
    report(2, "4415/642 - 41/6 = 14/321 exactly")


def test_criterion_03_intermediate_golden_checks():
    preset = context().preset
    eta, gamma, theta = preset.gen("eta"), preset.gen("gamma"), preset.gen("theta")
    c1, c2, c3, c4 = (preset.gen(f"c{i}") for i in range(1, 5))
    jet = jet_bundle_inverse_chern(preset, 11, 14)
    assert jet == 1 + 48 * eta + 2 * gamma - 6 * eta * theta
    # side(X) derives the locus from the jet series; this is the oracle for
    # its degree-4 form
    assert side(SIDE_X).locus == c4 - 6 * eta * theta * c2 + (48 * eta + 2 * gamma) * c3
    payload = json.loads(
        run_command(["d12", "run", "--dump-intermediates", "--format", "json"]).stdout
    )
    inter = payload["result"]["intermediates"]
    assert inter["c3diff_x_kfree"] == (
        "128*eta*theta^2 - 432*eta*theta*c1 + 440*eta*c1^2 - 140*eta*c2"
        " - 32/3*theta^3 + 48*theta^2*c1 - 88*theta*c1^2 + 28*theta*c2"
        " + 64*c1^3 - 53*c1*c2 + 9*c3"
    )
    assert inter["c3diff_y_kfree"] == (
        "-8*eta*theta^2 + 24*eta*theta*c1 - 22*eta*c1^2 + 7*eta*c2"
        " - 32/3*theta^3 + 48*theta^2*c1 - 88*theta*c1^2 + 28*theta*c2"
        " + 64*c1^3 - 53*c1*c2 + 9*c3"
    )
    report(3, "k-free polynomials, locus classes and jet series match the records")


def test_criterion_04_dual_evaluator_equivalence():
    ctx = context()
    preset = ctx.preset
    eta, theta = preset.gen("eta"), preset.gen("theta")
    checked = 0

    def monomials():
        def rec(i, left, acc):
            if i == 6:
                yield tuple(acc)
                return
            for m in range(left // i + 1):
                yield from rec(i + 1, left - i * m, acc + [m])
        yield from rec(1, 6, [])

    for exps in monomials():
        weight = sum(i * m for i, m in enumerate(exps, start=1))
        elem = eta * theta ** (6 - weight)
        for i, m in enumerate(exps, start=1):
            elem = elem * preset.gen(f"c{i}") ** m
        assert evaluate_taut(ctx, elem) == evaluate_taut_recursion(ctx, elem)
        checked += 1
    assert checked == 29
    for name in (SIDE_X, SIDE_Y):
        integrand = ambient_integrand(name)
        assert evaluate_taut(ctx, integrand) == evaluate_taut_recursion(ctx, integrand)
    report(4, f"evaluators agree on {checked} monomials and both full integrands")


def test_criterion_05_zg_reconstruction():
    for g in range(3, 17):
        rep = solve_zg(g)
        cls = rep.divisor_class
        assert cls.bar("lambda") == g + 8
        assert cls.bar("alpha0") == Fraction(g + 2, 4)
        assert cls.bar("beta0") == 2
        for i in range(1, g // 2 + 1):
            assert cls.bar(f"alpha{i}") == 2 * (g - i)
            assert cls.bar(f"beta{i}") == 2 * i
        assert rep.matches_closed_form
        if g == 5:
            assert rep.degenerate and rep.fallback_consistent
        else:
            assert rep.full_rank
    report(5, "solve_zg matches the closed form for g in 3..16; g = 5 flagged")


def test_criterion_06_porteous_lambda():
    for g in range(3, 31):
        assert degenerate_theta_lambda_coefficient(g) == g + 8
    report(6, "relative push-forward gives (g+8) lambda for g in 3..30")


def test_criterion_07_pushforward():
    down = pushforward(3, zg_class(3))
    assert down == DivisorClass.from_mapping(
        moduli_basis(3), {"lambda": 308, "delta0": -32, "delta1": -76}
    )
    rng = random.Random(13)
    for g in range(3, 17):
        n = covering_degree(g)
        basis = moduli_basis(g)
        cls = DivisorClass.from_mapping(
            basis,
            {name: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
             for name in basis.names},
        )
        assert pushforward(g, pullback(g, cls)) == n * cls
    hyperelliptic = DivisorClass.from_mapping(
        moduli_basis(3), {"lambda": 9, "delta0": -1, "delta1": -3}
    )
    total = combine([hyperelliptic, down], [8, 1])
    assert total == DivisorClass.from_mapping(
        moduli_basis(3), {"lambda": 380, "delta0": -40, "delta1": -100}
    )
    report(7, "push-forward identities and the genus-3 combination hold exactly")


def test_criterion_08_test_curve_pairings():
    for g in range(3, 17):
        z = zg_class(g)
        for i in range(1, g // 2 + 1):
            assert pair(boundary_curve("F", g, i), z) == 4 * (g - i) * (i - 1)
            assert pair(boundary_curve("G", g, i), z) == 4 * i * (i - 1)
        assert pair(boundary_curve("F0", g), z) == 0
        assert pair(boundary_curve("G0", g), z) == 0
        assert pair(boundary_curve("H", g), z) == 2 * (g - 2)
    report(8, "family and pencil pairings against the divisor class, g <= 16")


def test_criterion_09_canonical_and_theta_pencil():
    for g in range(3, 31):
        profile = theta_pencil_profile(g)
        value = pair(profile.curve, canonical_class(SPIN, g))
        assert value == 2 * g - 24
        assert (value < 0) == (g <= 11)
        assert 2 * (g - 1) + (4 * g + 20) == 6 * g + 18
        assert profile.decomposition_ok
        branch = DivisorClass.from_mapping(spin_basis(g), {"beta0": 1})
        assert canonical_class(SPIN, g) == pullback(g, canonical_class(MODULI, g)) + branch
    report(9, "canonical pairings 2g-24, branch relation, discriminant identity")


def test_criterion_10_certificates():
    for g in range(13, 31):
        rep = certificate(g, "bn")
        assert rep.mu == Fraction(2 * g - 24, g + 1)
        assert rep.mu > 0
        assert rep.verdict == "pass"
        assert all(v >= 0 for name, v in rep.slacks if name != "lambda")
    d12 = certificate(12, "d12")
    # weights pinned by the independent 2x2 elimination oracle:
    # subtracting twice the first row from the second gives -5x = -1
    x = Fraction(1, 5)
    y = (2 - Fraction(14, 4) * x) / 1926
    assert (d12.weight_zg, d12.weight_aux) == (x, y) == (Fraction(1, 5), Fraction(13, 19260))
    assert d12.mu == Fraction(77, 1284)
    assert d12.mu > 0 and d12.verdict == "pass"
    with pytest.raises(PreconditionError):
        certificate(12, "bn")
    report(10, "BN certificates for g in 13..30, d12 certificate, g=12 BN refused")


def test_criterion_11_scorza_and_counts():
    for g in range(3, 31):
        assert scorza_genus(g) == 3 * g * (g - 1) + 1
    for g in range(3, 17):
        counts = theta_counts(g)
        assert counts.total == 4 ** g
        n = counts.n_odd
        for i in range(g // 2 + 1):
            deg_a, deg_b = boundary_degrees(g, i)
            assert deg_a + (2 if i == 0 else 1) * deg_b == n
    report(11, "Scorza genus by adjunction, parity identities")


def test_criterion_12_harris_tu_base_value():
    ctx = bn_context(11, 4, 14)
    oracle = laplace_det(recip_factorial_rows(ctx, (0,) * 5))
    assert oracle == Fraction(1, 120)
    preset = ctx.preset
    value = evaluate_taut(ctx, preset.gen("eta") * preset.gen("theta") ** 6)
    assert value == 332640
    assert value == oracle * math.factorial(11)
    assert value == math.factorial(11) // math.factorial(5)  # Serre duality
    report(12, "base value 332640 = (1/120) * 11! = 11!/5!")


def test_criterion_13_property_suites():
    # ring confluence on 200 random products
    preset = bn_context(11, 4, 14).preset
    rng = random.Random(4099)

    def random_elem():
        elem = preset.zero()
        for _ in range(rng.randint(1, 4)):
            mono = preset.one()
            for _ in range(rng.randint(0, 4)):
                mono = mono * preset.gen(rng.choice(preset.names))
            elem = elem + rng.randint(-6, 6) * mono
        return elem

    for _ in range(200):
        a, b = random_elem(), random_elem()
        assert a * b == b * a

    # integrate linearity
    eta, gamma, theta = preset.gen("eta"), preset.gen("gamma"), preset.gen("theta")
    pool = [eta * theta ** 11, gamma * theta ** 11, gamma ** 2 * theta ** 10]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        s = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert integrate(s * a + t * b) == s * integrate(a) + t * integrate(b)

    # parser round-trip
    for _ in range(60):
        elem = random_elem()
        text = elem.render()
        assert expr_to_ring(parse_expression(text, preset), preset) == elem

    # deterministic JSON bytes
    argv = ["d12", "run", "--format", "json"]
    assert run_command(argv).stdout.encode() == run_command(argv).stdout.encode()
    argv2 = ["cert", "--g", "14", "--aux", "bn", "--format", "json"]
    assert run_command(argv2).stdout.encode() == run_command(argv2).stdout.encode()
    report(13, "confluence, linearity, parser round-trip, byte-stable JSON")


def test_the_readme_library_example_states_its_values():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    *lines, last = block.split("```", 1)[0].strip().splitlines()
    scope = {}
    exec("\n".join(lines), scope)
    assert (scope["a"], scope["b0"], scope["b1"]) == (13245, 1926, 9867)
    assert scope["report"].slope == Fraction(4415, 642)
    assert str(scope["down"]) == "308*lambda - 32*delta0 - 76*delta1"
    assert scope["mu"] == Fraction(1, 7)
    assert eval(last, scope) == 332640  # the block ends on the value it shows
