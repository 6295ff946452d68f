import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspin import cli, genus12
from oddspin.cli import run_command

# every leaf command, by its report label, with one valid argument list
LEAVES = {
    "ring eval": ["ring", "eval", "--preset", "surface:g=3", "Delta^2"],
    "pic class": ["pic", "class", "--g", "3", "--name", "zg"],
    "pic pair": ["pic", "pair", "--g", "7", "--curve", "F:3", "--class", "zg"],
    "pic push": ["pic", "push", "--g", "3", "--class", "zg"],
    "pic pull": ["pic", "pull", "--g", "5", "--class", "k"],
    "pic solve-zg": ["pic", "solve-zg", "--g", "5"],
    "cert": ["cert", "--g", "13", "--aux", "bn"],
    "d12 run": ["d12", "run"],
    "numbers": ["numbers", "--g", "8"],
}


def run_json(argv):
    outcome = run_command(argv)
    assert outcome.exit_code == 0, outcome.stderr
    return json.loads(outcome.stdout)


def test_d12_run_json_values():
    payload = run_json(["d12", "run", "--format", "json"])
    result = payload["result"]
    assert result["b1"] == "9867"
    assert result["b0"] == "1926"
    assert result["a"] == "13245"
    assert result["slope"] == "4415/642"
    assert result["violates_slope_conjecture"] is True
    assert result["threshold"] == "90/13"


def test_d12_class_string_follows_the_computed_coefficients(monkeypatch):
    golden = "13245*lambda - 1926*delta0 - 9867*delta1 - sum_{j>=2} b_j*delta_j"
    assert run_json(["d12", "run", "--format", "json"])["result"]["class"] == golden
    report = genus12.d12_slope_report()
    patched = genus12.SlopeReport(
        a=Fraction(7), b0=Fraction(5, 2), b1=Fraction(3), slope=report.slope,
        threshold=report.threshold, violates_slope_conjecture=report.violates_slope_conjecture,
        cross_lhs=report.cross_lhs, cross_rhs=report.cross_rhs,
        higher_boundary_note=report.higher_boundary_note)
    monkeypatch.setattr(genus12, "d12_slope_report", lambda: patched)
    result = run_json(["d12", "run", "--format", "json"])["result"]
    assert result["class"] == "7*lambda - 5/2*delta0 - 3*delta1 - sum_{j>=2} b_j*delta_j"


def test_d12_json_bytes_deterministic():
    first = run_command(["d12", "run", "--format", "json"]).stdout.encode()
    second = run_command(["d12", "run", "--format", "json"]).stdout.encode()
    assert first == second
    third = run_command(["numbers", "--g", "8", "--format", "json"]).stdout.encode()
    fourth = run_command(["numbers", "--g", "8", "--format", "json"]).stdout.encode()
    assert third == fourth


def test_d12_dump_intermediates_golden():
    payload = run_json(["d12", "run", "--dump-intermediates", "--format", "json"])
    inter = payload["result"]["intermediates"]
    assert inter["jet_inverse"] == "-6*eta*theta + 48*eta + 2*gamma + 1"
    assert inter["class_x"] == "-6*eta*theta*c2 + 48*eta*c3 + 2*gamma*c3 + c4"
    assert inter["class_y"] == "-2*eta*theta*c2 + 13*eta*c3 + gamma*c3 + c4"
    assert inter["total_x"] == "197340"
    assert inter["total_y"] == "32505"
    # the k-free degree-3 polynomials, rendered in the canonical order
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


def test_pic_push_text():
    outcome = run_command(["pic", "push", "--g", "3", "--class", "zg"])
    assert outcome.exit_code == 0
    assert "308*lambda - 32*delta0 - 76*delta1" in outcome.stdout


def test_pic_pull_canonical():
    payload = run_json(["pic", "pull", "--g", "5", "--class", "k", "--format", "json"])
    assert payload["result"]["to"] == "spin(g=5)"


def test_pic_class_bn():
    payload = run_json(["pic", "class", "--g", "13", "--name", "bn", "--format", "json"])
    assert payload["result"]["slope"] == "48/7"
    assert payload["result"]["coefficients"]["delta0"] == "-7/3"


def test_pic_pair_family():
    payload = run_json(
        ["pic", "pair", "--g", "7", "--curve", "F:3", "--class", "zg", "--format", "json"]
    )
    assert payload["result"]["value"] == "32"


def test_pic_pair_expression():
    payload = run_json(
        ["pic", "pair", "--g", "12", "--curve", "C0", "--class", "d12",
         "--format", "json"]
    )
    assert payload["result"]["value"] == "32505"
    # an explicit linear functional: F0 pairs (1, 12, -1) against (1, -12, 1)
    expr = run_json(
        ["pic", "pair", "--g", "7", "--curve", "F0",
         "--class", "lambda - 12*alpha0 + alpha1", "--format", "json"]
    )
    assert expr["result"]["value"] == "-144"


def test_pic_solve_zg_degenerate():
    payload = run_json(["pic", "solve-zg", "--g", "5", "--format", "json"])
    assert payload["result"]["degenerate"] is True
    assert payload["result"]["matches_closed_form"] is True
    assert payload["result"]["undetermined"] == ["beta0", "beta1"]
    clean = run_json(["pic", "solve-zg", "--g", "7", "--format", "json"])
    assert clean["result"]["full_rank"] is True


def test_cert_bn_json():
    payload = run_json(["cert", "--g", "13", "--aux", "bn", "--format", "json"])
    assert payload["result"]["verdict"] == "pass"
    assert payload["result"]["mu"] == "1/7"


def test_cert_refusal_exit_code_and_message():
    outcome = run_command(["cert", "--g", "12", "--aux", "bn"])
    assert outcome.exit_code != 0
    assert "genus 12" in outcome.stderr
    assert "Brill-Noether" in outcome.stderr


def test_ring_eval_integrates():
    payload = run_json(
        ["ring", "eval", "--preset", "jac:g=11,d=14,r=4", "eta*theta^11",
         "--format", "json"]
    )
    assert payload["result"]["value"] == "39916800"
    assert payload["result"]["value_method"] == "integrate"


def test_ring_eval_normalizes():
    payload = run_json(
        ["ring", "eval", "--preset", "jac:g=11,d=14,r=4", "gamma^2*theta",
         "--format", "json"]
    )
    assert payload["result"]["normalized"] == "-2*eta*theta^2"


def test_ring_eval_tautological_value():
    payload = run_json(
        ["ring", "eval", "--preset", "jac:g=11,d=14,r=4", "eta*theta^6",
         "--format", "json"]
    )
    assert payload["result"]["value"] == "332640"


def test_ring_eval_surface_and_uc():
    surface = run_json(
        ["ring", "eval", "--preset", "surface:g=3", "Delta^2", "--format", "json"]
    )
    assert surface["result"]["value"] == "-4"
    uc = run_json(
        ["ring", "eval", "--preset", "uc:g=5",
         "3/4*omega^2 - 2*omega*(-1/4*lambda)", "--format", "json"]
    )
    assert uc["result"]["value"] == "13"


def test_parse_error_exit_code():
    outcome = run_command(["ring", "eval", "--preset", "jac:g=11,d=14,r=4", "1/0"])
    assert outcome.exit_code == 2
    assert "byte offset" in outcome.stderr


def test_basis_mismatch_exit_code():
    outcome = run_command(["pic", "pair", "--g", "12", "--curve", "C0",
                           "--class", "zg"])
    assert outcome.exit_code == 3


def test_numbers_profile():
    payload = run_json(["numbers", "--g", "8", "--format", "json"])
    result = payload["result"]
    assert result["spin_counts"]["odd"] == 2 ** 7 * (2 ** 8 - 1)
    assert result["scorza_genus"] == 169
    assert result["mukai"] == {"dim_v": 8, "n_g": 14, "max_delta_dominant": 7}
    assert result["theta_pencil"]["canonical_pairing"] == "-8"
    assert result["theta_pencil"]["decomposition_ok"] is True


def test_theta_pencil_pairing_via_curve_p():
    payload = run_json(
        ["pic", "pair", "--g", "10", "--curve", "P", "--class", "k",
         "--format", "json"]
    )
    assert payload["result"]["value"] == "-4"


def test_pic_push_accepts_positional_expression():
    payload = run_json(
        ["pic", "push", "--g", "3",
         "11*lambda - 5/4*alpha0 - 2*beta0 - 4*alpha1 - 2*beta1",
         "--format", "json"]
    )
    assert payload["result"]["class"] == "308*lambda - 32*delta0 - 76*delta1"
    assert run_command(["pic", "push", "--g", "3", "lambda", "--class", "zg"]).exit_code == 2
    assert run_command(["pic", "push", "--g", "3"]).exit_code == 2


def test_curve_name_h0_alias():
    payload = run_json(
        ["pic", "pair", "--g", "9", "--curve", "H0", "--class", "zg",
         "--format", "json"]
    )
    assert payload["result"]["value"] == "14"
    assert any("H0:" in note for note in payload["assumptions"])


def test_ring_eval_kernel_class_notes_assumption():
    payload = run_json(
        ["ring", "eval", "--preset", "jac:g=11,d=14,r=4", "k*eta*theta",
         "--format", "json"]
    )
    assert payload["result"]["value"] is None
    assert any("kernel class" in note for note in payload["assumptions"])


@pytest.mark.parametrize("preset,expression,refusal", [
    ("jac:g=11,d=14,r=5", "3", "negative Brill-Noether number"),  # rho = -1
    ("jac:g=2,d=5,r=0", "c1^6", "W^0_5 is all of Pic^5"),          # g - d + r < 0
])
def test_ring_eval_skips_a_refused_brill_noether_context(preset, expression, refusal):
    # the expression has degree rho+1, but the context has no Brill-Noether
    # locus to integrate over: no value, a note, exit 0
    payload = run_json(["ring", "eval", "--preset", preset, expression, "--format", "json"])
    assert payload["result"]["value"] is None
    assert payload["result"]["value_method"] is None
    assert any(refusal in note for note in payload["assumptions"])


def test_pic_class_d12():
    payload = run_json(["pic", "class", "--g", "12", "--name", "d12",
                        "--format", "json"])
    assert payload["result"]["slope"] == "4415/642"
    assert payload["result"]["coefficients"]["delta1"] == "-9867"
    assert any("conservative bound" in note for note in payload["assumptions"])


@pytest.mark.parametrize("label", LEAVES)
def test_every_leaf_reports_its_label(label):
    payload = run_json([*LEAVES[label], "--format", "json"])
    assert list(payload) == ["command", "inputs", "result", "assumptions", "warnings"]
    assert payload["command"] == label
    assert payload["warnings"] == []


@pytest.mark.parametrize("argv", [
    ["pic", "--format", "json", "class", "--g", "3", "--name", "zg"],
    ["ring", "--format", "json", "eval", "--preset", "surface:g=3", "Delta^2"],
    ["d12", "--format", "json", "run"],
])
def test_format_before_the_leaf_is_a_usage_error(argv):
    outcome = run_command(argv)
    assert outcome.exit_code == 2
    assert outcome.stdout == ""


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["pic", "-h"], ["ring", "eval", "-h"], ["d12", "run", "--help"],
])
def test_help_is_an_outcome_not_an_exit(capsys, argv):
    outcome = run_command(argv)
    assert outcome.exit_code == 0
    assert outcome.stdout.startswith(f"usage: oddspin {' '.join(argv[:-1])}".rstrip())
    assert outcome.stderr == ""
    assert capsys.readouterr() == ("", "")


def test_main_prints_help_and_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oddspin", "pic", "class", "-h"])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: oddspin pic class") and "--format" in out
    assert err == ""


def test_parser_reuse_leaves_no_state_behind():
    codes = [run_command(["pic", "push", "--g", "3", *rest]).exit_code
             for rest in (["lambda"], ["--class", "zg"], [])]
    assert codes == [0, 0, 2]
    argv = ["pic", "class", "--g", "12", "--name", "d12"]
    first = run_command([*argv, "--format", "json"]).stdout
    assert run_command(argv).stdout.startswith("command: pic class")
    assert run_command([*argv, "--format", "json"]).stdout == first


def test_parser_tree_is_built_once(monkeypatch):
    run_command(["numbers", "--g", "3"])
    built = []
    init = cli._ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counted)
    for argv in LEAVES.values():
        run_command(argv)
    run_command(["pic", "-h"])
    assert built == []


# argv fuzz: a leaf's valid argument list with some of its values replaced,
# then maybe -h, a --format or one more word; the words come from the
# command table, genera from -2..40, expressions have exponents at most 6
GENUS = st.integers(-2, 40).map(str)
FUZZ_TOKEN = st.one_of(
    st.sampled_from(sorted({word for argv in LEAVES.values() for word in argv} | {
        "-h", "--format", "json", "--space", "spin", "moduli", "--dump-intermediates",
        "bn", "d12", "k", "P", "C0", "G:2", "H0", "jac:g=3,d=2,r=0", "uc:g=3", "jac:g",
    })),
    GENUS,
    st.builds("{}^{}".format,
              st.sampled_from(("theta", "eta", "c1", "omega", "lambda", "Delta", "(1/2*theta - c1)")),
              st.integers(0, 6)),
)
TAIL = st.one_of(
    st.just([]),
    st.sampled_from((["-h"], ["--format", "json"], ["--format", "text"])),
    FUZZ_TOKEN.map(lambda word: [word]),
)


@st.composite
def fuzzed_argv(draw):
    label = draw(st.sampled_from(list(LEAVES)))
    argv = list(LEAVES[label])
    values = [i for i in range(len(label.split()), len(argv)) if not argv[i].startswith("-")]
    for i in draw(st.lists(st.sampled_from(values), max_size=2)) if values else ():
        argv[i] = draw(GENUS if argv[i - 1] == "--g" else FUZZ_TOKEN)
    return argv + draw(TAIL)


@settings(max_examples=200, deadline=None)
@given(fuzzed_argv())
def test_random_argv_gives_an_exit_code(argv):
    outcome = run_command(argv)
    assert outcome.exit_code in {0, 1, 2, 3, 4}
    assert (outcome.exit_code == 0) == (outcome.stderr == "")


# -- numbers past Python's integer-to-string digit limit --------------------

@pytest.fixture
def digit_limit_4300():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer digit limit before Python 3.11")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("argv,exit_code,message", [
    (["ring", "eval", "--preset", "uc:g=3", "2^20000*omega^2"], 2,
     "constant power has more than 4300 digits (at byte offset 1)"),
    (["ring", "eval", "--preset", "uc:g=3", "1" * 4400 + "*omega^2"], 2,
     "integer literal longer than 4300 digits (at byte offset 0)"),
    (["ring", "eval", "--preset", "uc:g=3", "10^4000*10^4000*omega^2"], 1,
     "number too long to print: more than 4300 digits"),
    (["pic", "pair", "--g", "5", "--curve", "C0", "--class", "2^20000*delta0"], 2,
     "constant power has more than 4300 digits (at byte offset 1)"),
], ids=["power", "literal", "product", "pic-pair-power"])
def test_oversized_numbers_give_an_exit_code(digit_limit_4300, argv, exit_code, message):
    outcome = run_command(argv)
    assert outcome.exit_code == exit_code
    assert outcome.stderr == f"error: {message}"


@pytest.mark.parametrize("preset,expression", [
    ("jac:g=3,d=2,r=0", "(2+theta)^200000"),
    ("uc:g=3", "(2+omega)^20000"),
])
def test_power_with_an_oversized_constant_term_is_refused(digit_limit_4300, preset, expression):
    # every generator has positive degree: the constant term of (2 + x)^N is 2^N
    outcome = run_command(["ring", "eval", "--preset", preset, expression])
    assert outcome.exit_code == 2
    assert outcome.stderr == "error: constant power has more than 4300 digits (at byte offset 9)"


def test_power_with_a_unit_constant_term_is_computed(digit_limit_4300):
    n = 300000
    result = run_json(["ring", "eval", "--preset", "jac:g=3,d=2,r=0", f"(1+theta)^{n}",
                       "--format", "json"])["result"]
    # theta^5 vanishes at g = 3
    binomials = [f"{math.comb(n, k)}*theta^{k}" for k in (4, 3, 2)]
    assert result["normalized"] == " + ".join(binomials + [f"{n}*theta", "1"])


def test_nilpotent_power_is_not_refused(digit_limit_4300):
    result = run_json(["ring", "eval", "--preset", "jac:g=3,d=2,r=0", "(2*theta)^300000",
                       "--format", "json"])["result"]
    assert result["normalized"] == "0"


def test_printable_constant_power_is_computed(digit_limit_4300):
    # 2^14000 has 4215 digits; (10/3)^4000 has parts of 4001 and 1909 digits
    for expression, coefficient in (("2^14000*omega^2", 2 ** 14000),
                                    ("(10/3)^4000*omega^2", Fraction(10, 3) ** 4000)):
        result = run_json(["ring", "eval", "--preset", "uc:g=3", expression,
                           "--format", "json"])["result"]
        assert result["normalized"] == f"{coefficient}*omega^2"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_spin_counts_past_the_digit_limit_exit_1(digit_limit_4300, fmt):
    # the least limit, 640 digits, stands in for 4300: past it from g = 1064 on,
    # as 4300 digits is from g = 7143 on (the counts are about 2^(2g-1))
    sys.set_int_max_str_digits(640)
    outcome = run_command(["numbers", "--g", "1064", "--format", fmt])
    assert (outcome.exit_code, outcome.stdout) == (1, "")
    assert outcome.stderr == "error: number too long to print: more than 640 digits"
    counts = run_json(["numbers", "--g", "1063", "--format", "json"])["result"]["spin_counts"]
    assert counts["total"] == 2 ** 2126


def test_no_digit_limit_means_no_refusal(digit_limit_4300):
    sys.set_int_max_str_digits(0)
    result = run_json(["ring", "eval", "--preset", "uc:g=3", "2^20000*omega^2",
                       "--format", "json"])["result"]
    assert result["normalized"] == f"{2 ** 20000}*omega^2"


# -- long and deeply nested expressions -------------------------------------

LONG = 10 ** 5


@pytest.mark.parametrize("expression,normalized", [
    ("+".join(["omega"] * LONG), f"{LONG}*omega"),
    ("(" * LONG + "omega" + ")" * LONG, "omega"),
], ids=["sum", "nesting"])
def test_long_and_deep_ring_expressions_give_their_value(expression, normalized):
    result = run_json(["ring", "eval", "--preset", "uc:g=3", expression,
                       "--format", "json"])["result"]
    assert result["normalized"] == normalized


def test_long_class_expression_gives_its_pairing():
    result = run_json(["pic", "pair", "--g", "5", "--curve", "G0",
                       "--class", "+".join(["lambda"] * LONG), "--format", "json"])["result"]
    assert result["class"] == f"{LONG}*lambda"
    assert result["value"] == str(3 * LONG)  # lambda alone pairs to 3 with G0
