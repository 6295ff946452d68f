import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspin import cli, genus12
from oddspin.cli import run_command
from test_golden import _regen as golden_regen

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
    # the k-linear parts, with k stripped
    assert inter["kcoeff_x"] == (
        "-560*eta*theta + 912*eta*c1 - 32*gamma*theta + 48*gamma*c1"
        " - 16*theta^2 + 48*theta*c1 - 44*c1^2 + 14*c2"
    )
    assert inter["kcoeff_y"] == (
        "-200*eta*theta + 324*eta*c1 - 16*gamma*theta + 24*gamma*c1"
        " - 16*theta^2 + 48*theta*c1 - 44*c1^2 + 14*c2"
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


@pytest.mark.parametrize("spec,expression,refusal", [
    ("surface:g=3,r=9", "Delta^2", "unknown parameter 'r'"),
    ("uc:g=3,h=1", "omega^2", "unknown parameter 'h'"),
    ("uc:g=3,g=5", "omega^2", "repeats parameter 'g'"),
    ("jac:g=3,d=2,r=0,r=0", "theta", "repeats parameter 'r'"),
])
def test_preset_spec_refuses_unknown_and_repeated_parameters(spec, expression, refusal):
    outcome = run_command(["ring", "eval", "--preset", spec, expression])
    assert outcome.exit_code == 2
    assert refusal in outcome.stderr


@pytest.mark.parametrize("spec", [
    "surface:g=1_0", "surface:g= 3", "surface:g=+3", "surface:g=\u0663", "surface:g=3 ",
    "surface:g=-", "surface:g=--3", "jac:g=3,d=2\u00b2,r=0",
])
def test_preset_parameter_values_are_ascii_decimal_integers(spec):
    # int() would take each of these: underscores, spaces, a plus sign and
    # other scripts' digits
    outcome = run_command(["ring", "eval", "--preset", spec, "Delta^2"])
    assert outcome.exit_code == 2
    assert "is not an integer" in outcome.stderr


@pytest.mark.parametrize("spec,refusal", [
    ("surface:g=-3", "surface preset needs g >= 2 (got g=-3)"),
    ("jac:g=-1,d=1,r=0", "g >= 1"),
])
def test_negative_preset_parameters_reach_the_builder_range_check(spec, refusal):
    outcome = run_command(["ring", "eval", "--preset", spec, "theta"])
    assert outcome.exit_code == 1
    assert refusal in outcome.stderr


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


@pytest.mark.parametrize("g", ["1", "2"])
def test_numbers_refuses_low_genus(g):
    assert run_command(["numbers", "--g", g]).exit_code == 1


def test_theta_pencil_pairing_via_curve_p():
    payload = run_json(
        ["pic", "pair", "--g", "10", "--curve", "P", "--class", "k",
         "--format", "json"]
    )
    assert payload["result"]["value"] == "-4"


@pytest.mark.parametrize("argv,exit_code,message", [
    (["--g", "7", "--curve", "P:1"], 1, "error: curve P takes no index"),
    (["--g", "7", "--curve", "P:abc"], 2, "error: curve index 'abc' is not an integer"),
    (["--g", "2", "--curve", "P"], 1, "error: theta pencils need g >= 3"),
], ids=["index", "non-integer-index", "low-genus"])
def test_curve_p_refusals(argv, exit_code, message):
    outcome = run_command(["pic", "pair", *argv, "--class", "zg"])
    assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (exit_code, "", message)


@pytest.mark.parametrize("name,g", [("zg", "5"), ("bn", "13"), ("d12", "12")])
@pytest.mark.parametrize("space", ["spin", "moduli"])
def test_pic_class_refuses_space_unless_k(name, g, space):
    outcome = run_command(["pic", "class", "--g", g, "--name", name, "--space", space])
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    assert outcome.stderr == f"error: --space applies to --name k only, not to {name!r}"
    payload = run_json(["pic", "class", "--g", g, "--name", "k", "--space", space,
                        "--format", "json"])
    assert payload["inputs"]["space"] == space
    assert payload["result"]["basis"] == f"{space}(g={g})"


@pytest.mark.parametrize("argv,word", [
    (["ring", "eval", "--preset", "uc:g=3", "-2*omega^2"], "-2*omega^2"),
    (["ring", "eval", "--preset", "uc:g=3", "omega^2", "-x"], "-x"),
    (["pic", "pull", "--g", "5", "-1/2*lambda"], "-1/2*lambda"),
    (["pic", "push", "--g", "4", "-lambda", "--format", "json"], "-lambda"),
])
def test_a_leading_minus_expression_error_says_to_use_double_dash(argv, word):
    outcome = run_command(argv)
    assert outcome.exit_code == 2
    assert outcome.stderr.endswith(
        f"(an expression that begins with '-' goes after '--', as in: -- {word})"
    )


def test_the_double_dash_hint_is_the_fix():
    argv = ["ring", "eval", "--preset", "uc:g=3", "--format", "json", "--", "-2*omega^2"]
    assert run_json(argv)["result"]["normalized"] == "-2*omega^2"


def test_a_word_with_a_space_is_a_value_even_with_a_leading_minus():
    argv = ["ring", "eval", "--preset", "uc:g=3", "-2*omega^2 + lambda^2", "--format", "json"]
    assert run_json(argv)["result"]["value"] == "-24"


@pytest.mark.parametrize("argv,message", [
    (["ring", "eval", "--preset", "uc:g=3"], "the following arguments are required: expression"),
    (["ring", "eval", "--preset", "-3"], "the following arguments are required: expression"),
    (["ring", "eval", "omega^2", "-x"], "the following arguments are required: --preset"),
    (["pic", "push", "--g", "4", "lambda", "--bogus"], "unrecognized arguments: --bogus"),
    (["pic", "solve-zg", "--g", "4", "-x"], "unrecognized arguments: -x"),
])
def test_other_usage_errors_carry_no_double_dash_hint(argv, message):
    outcome = run_command(argv)
    assert (outcome.exit_code, outcome.stderr) == (2, f"error: {message}")


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


@pytest.mark.parametrize("argv,curve_notes", [
    (["pic", "pair", "--g", "12", "--curve", "C0", "--class", "d12"], []),
    (["pic", "pair", "--g", "12", "--curve", "C1", "--class", "d12"], []),
    (["pic", "pair", "--g", "12", "--curve", "R", "--class", "d12"],
     [f"R:delta{j}" for j in range(2, 7)]),
    (["pic", "pull", "--g", "12", "--class", "d12"], []),
])
def test_a_named_d12_class_carries_its_assumption(argv, curve_notes):
    bound = run_json(["pic", "class", "--g", "12", "--name", "d12",
                      "--format", "json"])["assumptions"]
    assert bound == ["delta_j coefficients for j >= 2 use the conservative bound b_j = b_1 = 9867"]
    assert run_json([*argv, "--format", "json"])["assumptions"] == curve_notes + bound
    text = run_command([*argv, "--format", "text"]).stdout
    assert "assumptions:\n" in text and f"  - {bound[0]}\n" in text


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


@pytest.mark.parametrize("argv", [[3], ["numbers", "--g", 3], ["pic", ["x"]]])
def test_a_word_that_is_not_a_str_is_a_usage_error(argv):
    outcome = run_command(argv)
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    assert outcome.stderr == "error: every word of a command line must be a str"


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["pic", "-h"], ["ring", "eval", "-h"], ["d12", "run", "--help"],
])
def test_help_is_an_outcome_not_an_exit(capsys, argv):
    outcome = run_command(argv)
    assert outcome.exit_code == 0
    assert outcome.stdout.startswith(f"usage: oddspin {' '.join(argv[:-1])}".rstrip())
    assert outcome.stderr == ""
    assert capsys.readouterr() == ("", "")


def test_help_does_not_follow_the_terminal_width(monkeypatch):
    helps = set()
    for columns in ("60", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.add(run_command(["pic", "class", "-h"]).stdout)
    assert len(helps) == 1


def test_main_prints_help_and_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oddspin", "pic", "class", "-h"])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: oddspin pic class") and "--format" in out
    assert err == ""


def test_main_exits_1_quietly_when_stdout_is_closed_early():
    # as in `oddspin pic pull ... | head -2`, but with the reader gone before
    # the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["pic", "pull", "--g", "5", "--format", "json", "--", "-1/2*lambda"]
    try:
        done = subprocess.run([sys.executable, "-m", "oddspin.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr, done.stderr


def test_solve_zg_at_g_20000_runs_in_a_child_under_512_mib():
    import resource

    limit = 512 * 2**20

    def cap_address_space():  # runs in the child, after fork
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["pic", "solve-zg", "--g", "20000", "--format", "json"]
    # the timeout only guards against a hang; it is not a speed bound
    done = subprocess.run([sys.executable, "-m", "oddspin.cli", *argv], capture_output=True,
                          text=True, timeout=600, preexec_fn=cap_address_space,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    assert '"matches_closed_form": true' in done.stdout


def test_parser_reuse_leaves_no_state_behind():
    codes = [run_command(["pic", "push", "--g", "3", *rest]).exit_code
             for rest in (["lambda"], ["--class", "zg"], [])]
    assert codes == [0, 0, 2]
    argv = ["pic", "class", "--g", "12", "--name", "d12"]
    first = run_command([*argv, "--format", "json"]).stdout
    assert run_command(argv).stdout.startswith("command: pic class")
    assert run_command([*argv, "--format", "json"]).stdout == first


def test_every_leaf_is_routed():
    # the table names every leaf, and each leaf's words reach it
    assert sorted(label for label, _, _ in cli._COMMANDS) == sorted(LEAVES)
    for label, argv in LEAVES.items():
        assert cli._parse(argv).label == label
        help_text = run_command([*label.split(), "-h"]).stdout
        assert help_text.startswith(f"usage: oddspin {label} [-h]")


def _joined(argv):
    """``argv`` with every option that takes a value joined to it by '='."""
    leaf = cli._LEAVES.get(tuple(argv[:2])) or cli._LEAVES.get(tuple(argv[:1]))
    takes_value = {name for name, (_, kind, _) in leaf.options.items() if kind is not bool}
    joined, words = [], iter(argv)
    for word in words:
        joined.append(f"{word}={next(words)}" if word in takes_value else word)
    return joined


@pytest.mark.parametrize("label", LEAVES)
def test_every_leaf_runs_from_its_joined_spelling(label):
    argv = [*LEAVES[label], "--format", "json"]
    assert _joined(argv) != argv
    plain, joined = run_command(argv), run_command(_joined(argv))
    assert plain.exit_code == 0
    assert joined == plain


def _parse_outcome(argv):
    """The namespace of ``cli._parse(argv)``, or the message of its usage
    error or the text of its help; any other exception propagates."""
    try:
        return vars(cli._parse(list(argv)))
    except cli.UsageError as err:
        return "usage error", str(err)
    except cli._HelpRequested as text:
        return "help", str(text)


def test_routed_parse_agrees_on_the_golden_grid():
    # each corpus line's usage error is the parse's, and every other line's
    # words name the leaf the parse reads
    lines = [json.loads(line) for line in golden_regen().CORPUS.read_text().splitlines()]
    assert len(lines) > 2000
    for line in lines:
        outcome = _parse_outcome(line["argv"])
        if isinstance(outcome, dict):
            assert line["argv"][:len(outcome["label"].split())] == outcome["label"].split()
        elif outcome[0] == "usage error":
            assert (line["exit_code"], line["stderr"]) == (2, f"error: {outcome[1]}")
        else:
            assert (line["exit_code"], line["stderr"]) == (0, "")


def test_plain_parse_agrees_on_the_golden_grid():
    # a report's options read alike spelled '--opt value' and '--opt=value'
    grid = [argv for argv in golden_regen().grid() if isinstance(_parse_outcome(argv), dict)]
    assert len(grid) > 2000
    for argv in grid:
        assert _parse_outcome(_joined(argv)) == _parse_outcome(argv)


def _usage(label):
    return f"usage: oddspin {label} [-h]"


TOP, PIC = "{ring,pic,d12,cert,numbers}", "{class,pair,push,pull,solve-zg}"


def _invalid_choice(level, word):
    choices = ", ".join(f"'{choice}'" for choice in level[1:-1].split(","))
    return f"error: argument {level}: invalid choice: '{word}' (choose from {choices})"


def _hint(message, word):
    return (f"error: {message} (an expression that begins with '-' goes after '--',"
            f" as in: -- {word})")


# the parser edges of the golden corpus (``EDGE_ARGVS`` in tests/golden/regen.py)
# and every help: each argv, its exit code and the start of its stdout on
# exit 0, else its whole stderr
EDGE_OUTCOMES = [
    *(([*label.split(), "-h"], 0, _usage(label)) for label in LEAVES),
    *(([*label.split(), "--help", "--g", "x"], 0, _usage(label)) for label in LEAVES),
    (["ring", "eval", "--preset", "uc:g=3", "--", "-2*omega^2"], 0, "command: ring eval\n"),
    (["ring", "eval", "--preset", "uc:g=3", "-omega"], 2,
     _hint("the following arguments are required: expression", "-omega")),
    (["ring", "eval", "--preset", "uc:g=3", "-2*omega^2"], 2,
     _hint("the following arguments are required: expression", "-2*omega^2")),
    (["ring", "eval", "--preset", "uc:g=3", "omega^2", "-x", "--", "-y"], 2,
     _hint("unrecognized arguments: -x -- -y", "-x")),
    (["ring", "eval", "-x", "--format", "json"], 2,
     _hint("the following arguments are required: --preset, expression", "-x")),
    (["pic", "pull", "--g", "5", "-1/2*lambda"], 2,
     _hint("unrecognized arguments: -1/2*lambda", "-1/2*lambda")),
    (["pic", "push", "--g", "5", "--", "-lambda", "-x"], 2,
     _hint("unrecognized arguments: -x", "-x")),
    (["pic", "push", "--g", "-5", "lambda"], 1, "error: spin Picard basis needs g >= 3"),
    (["ring", "eval", "--", "--preset", "uc:g=3"], 2,
     "error: the following arguments are required: --preset"),
    (["ring", "eval", "--pre", "uc:g=3", "omega^2", "--form", "json"], 2,
     "error: the following arguments are required: --preset"),
    (["ring", "eval", "--preset=uc:g=3", "omega^2"], 0, "command: ring eval\n"),
    (["pic", "class", "--g", "3", "--na", "zg", "--sp", "spin"], 2,
     "error: the following arguments are required: --name"),
    (["pic", "push", "--g", "3", "--cl", "zg"], 2, "error: unrecognized arguments: --cl"),
    (["pic", "solve-zg", "--he"], 2, "error: the following arguments are required: --g"),
    (["pic", "solve-zg", "-hx"], 2, "error: the following arguments are required: --g"),
    (["pic", "solve-zg", "--g=3"], 0, "command: pic solve-zg\n"),
    (["pic", "solve-zg", "--g", "3", "--"], 2, "error: unrecognized arguments: --"),
    (["pic", "solve-zg", "--g", "3", "--", "--g"], 2, "error: unrecognized arguments: -- --g"),
    (["pic", "solve-zg", "--g", "3", "extra", "words"], 2,
     "error: unrecognized arguments: extra words"),
    (["d12", "run", "--dump"], 2, "error: unrecognized arguments: --dump"),
    (["d12", "run", "--format"], 2, "error: argument --format: expected one argument"),
    (["cert", "--g", "12", "--aux", "d12", "--format", "xml"], 2,
     "error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    (["cert", "--g", "12"], 2, "error: the following arguments are required: --aux"),
    (["numbers", "--g", "-3"], 1, "error: theta-characteristic counts need g >= 1"),
    (["numbers", "--g", "3", "--g", "4"], 2, "error: argument --g: given more than once"),
    (["numbers"], 2, "error: the following arguments are required: --g"),
    # no leaf named
    ([], 2, f"error: the following arguments are required: {TOP}"),
    (["-h"], 0, f"usage: oddspin [-h] {TOP} ...\n\nCommand-line front end."),
    (["--help"], 0, f"usage: oddspin [-h] {TOP} ...\n"),
    (["pic"], 2, f"error: the following arguments are required: {PIC}"),
    (["pic", "-h"], 0, f"usage: oddspin pic [-h] {PIC} ...\n\ncommands:\n  oddspin pic class"),
    (["pic", "bogus"], 2, _invalid_choice(PIC, "bogus")),
    (["bogus"], 2, _invalid_choice(TOP, "bogus")),
    (["pic", "--format", "json", "class", "--g", "3", "--name", "zg"], 2,
     _invalid_choice(PIC, "--format")),
    (["--", "numbers", "--g", "3"], 2, _invalid_choice(TOP, "--")),
    (["-x", "cert"], 2, _invalid_choice(TOP, "-x")),
    (["eval", "ring"], 2, _invalid_choice(TOP, "eval")),
    (["run"], 2, _invalid_choice(TOP, "run")),
]


def test_every_corpus_edge_has_an_outcome_here():
    corpus = [*map(list, golden_regen().EDGE_ARGVS), ["-h"], ["pic", "-h"],
              *([*label.split(), "-h"] for label in LEAVES)]
    assert sorted(argv for argv, _, _ in EDGE_OUTCOMES) == sorted(corpus)


@pytest.mark.parametrize("argv,exit_code,text", EDGE_OUTCOMES,
                         ids=[" ".join(argv) or "(none)" for argv, _, _ in EDGE_OUTCOMES])
def test_routed_parse_agrees_on_edge_argvs(argv, exit_code, text):
    outcome = run_command(argv)
    assert outcome.exit_code == exit_code
    if exit_code == 0:
        assert outcome.stderr == "" and outcome.stdout.startswith(text)
    else:
        assert (outcome.stdout, outcome.stderr) == ("", text)


# every word of LEAVES, other values, help, '--', an empty word, values that
# begin with '-', spellings that int() reads, --opt=value and every prefix
# of every option name
PLAIN_WORDS = sorted({word for argv in LEAVES.values() for word in argv} | {
    "json", "text", "spin", "moduli", "bn", "d12", "k", "uc:g=3", "omega^2", "lambda",
    "-h", "--help", "--", "", "-3", "-omega", "-1/2*lambda", "+3", "1_0", "\u0663", " 3",
    "--g=3", "--format=json", "--preset=uc:g=3", "--class=zg", "--name=k",
} | {option[:end] for _, _, arguments in cli._COMMANDS for option, _ in (cli._FORMAT, *arguments)
     if option[0] == "-" for end in range(3, len(option) + 1)})


def _edited(label, edits):
    """The valid argv of ``label`` with a word replaced at each position."""
    argv = list(LEAVES[label])
    for position, word in edits:
        argv[position % len(argv)] = word
    return argv


# word lists over PLAIN_WORDS and words that are not a str: a leaf's words
# and more, a leaf's valid argv with words replaced, or any words at all
WORD_LISTS = st.one_of(
    st.builds(lambda label, words: [*label.split(), *words], st.sampled_from(list(LEAVES)),
              st.lists(st.sampled_from(PLAIN_WORDS + [3, None]), max_size=8)),
    st.builds(_edited, st.sampled_from(list(LEAVES)), st.lists(
        st.tuples(st.integers(0, 9), st.sampled_from(PLAIN_WORDS + [3, None])),
        min_size=1, max_size=2)),
    st.lists(st.sampled_from(PLAIN_WORDS + [3, None]), max_size=6),
)


@settings(max_examples=500, deadline=None)
@given(WORD_LISTS)
def test_any_word_list_parses_to_a_namespace_help_or_usage_error(argv):
    outcome = _parse_outcome(argv)
    if isinstance(outcome, dict):
        assert argv[:len(outcome["label"].split())] == outcome["label"].split()
    else:
        assert outcome[0] in ("usage error", "help")


@settings(max_examples=200, deadline=None)
@given(WORD_LISTS)
def test_any_word_list_runs_to_an_exit_code(argv):
    outcome = run_command(argv)
    assert outcome.exit_code in {0, 1, 2, 3, 4}
    assert (outcome.exit_code == 0) == (outcome.stderr == "")


# argv fuzz: a leaf's valid argument list with some of its values replaced,
# then maybe -h, a --format or one more word; the words come from the
# command table, genera from -2..40, expressions have exponents at most 6
GENUS = st.integers(-2, 40).map(str)
FUZZ_TOKEN = st.one_of(
    st.sampled_from(sorted({word for argv in LEAVES.values() for word in argv} | {
        "-h", "--format", "json", "--space", "spin", "moduli", "--dump-intermediates",
        "bn", "d12", "k", "P", "C0", "G:2", "H0", "jac:g=3,d=2,r=0", "uc:g=3", "jac:g",
        "--", "-omega", "--he", "-hx", "--g=3", "--form",
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


@pytest.mark.parametrize("argv,offset", [
    (["ring", "eval", "--preset", "uc:g=3", "\u00b2"], 0),
    (["ring", "eval", "--preset", "uc:g=3", "2*\u00b2"], 2),
    (["ring", "eval", "--preset", "uc:g=3", "omega^\u00b2"], 6),
    (["ring", "eval", "--preset", "uc:g=3", "3/\u00b2"], 2),
    (["pic", "pair", "--g", "5", "--curve", "C0", "--class", "2*\u00b2"], 2),
])
def test_a_non_ascii_digit_is_a_usage_error(argv, offset):
    outcome = run_command(argv)
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    assert outcome.stderr == f"error: unexpected character '\u00b2' (at byte offset {offset})"


# -- the JSON report emitter --------------------------------------------------

# quotes, backslashes, control characters, non-ASCII, a line separator, a
# lone surrogate and a character outside the basic plane, among any others
REPORT_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')))
REPORT_INTS = st.one_of(st.integers(), st.builds(lambda n, e: n * 10 ** e,
                                                 st.integers(), st.integers(0, 3000)))
REPORT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), REPORT_INTS, REPORT_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(REPORT_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_the_report_emitter_writes_the_bytes_of_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value,kind", [
    (0.5, "float"), (Fraction(1, 2), "Fraction"), ((1, 2), "tuple"), (b"x", "bytes"),
    ({"a": [1, {"b": 1.0}]}, "float"), ([Fraction(1, 3)], "Fraction"),
])
def test_the_report_emitter_refuses_other_types(value, kind):
    with pytest.raises(TypeError, match=f"a report holds no {kind}$"):
        cli._json(value)


def test_the_report_emitter_refuses_a_key_that_is_not_a_str():
    with pytest.raises(TypeError, match="must be a string, not int$"):
        cli._json({"a": {1: "one"}})


# -- numbers past Python's integer-to-string digit limit --------------------

@pytest.fixture
def digit_limit_4300():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer digit limit before Python 3.11")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


# exponents of 4300 digits print, their sum, the degree, does not
DEGREE_PAST_LIMIT = f"omega^{'9' * 4300}*lambda^{'9' * 4300}"


@pytest.mark.parametrize("argv,exit_code,message", [
    (["ring", "eval", "--preset", "uc:g=3", "2^20000*omega^2"], 2,
     "constant power has more than 4300 digits (at byte offset 1)"),
    (["ring", "eval", "--preset", "uc:g=3", "1" * 4400 + "*omega^2"], 2,
     "integer literal longer than 4300 digits (at byte offset 0)"),
    (["ring", "eval", "--preset", "uc:g=3", "10^4000*10^4000*omega^2"], 1,
     "number too long to print: more than 4300 digits"),
    (["pic", "pair", "--g", "5", "--curve", "C0", "--class", "2^20000*delta0"], 2,
     "constant power has more than 4300 digits (at byte offset 1)"),
    (["ring", "eval", "--preset", "uc:g=3", DEGREE_PAST_LIMIT, "--format", "json"], 1,
     "number too long to print: more than 4300 digits"),
    (["ring", "eval", "--preset", "uc:g=3", DEGREE_PAST_LIMIT, "--format", "text"], 1,
     "number too long to print: more than 4300 digits"),
], ids=["power", "literal", "product", "pic-pair-power", "degree-json", "degree-text"])
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


def test_the_power_refusal_follows_a_changed_digit_limit(digit_limit_4300):
    # 2^3000 has 904 digits: printed under a 4300-digit limit, refused before
    # the power under a 640-digit one, whichever limit was met first
    argv = ["ring", "eval", "--preset", "uc:g=3", "2^3000*omega^2"]
    assert run_command(argv).exit_code == 0
    sys.set_int_max_str_digits(640)
    outcome = run_command(argv)
    assert outcome.exit_code == 2
    assert outcome.stderr == "error: constant power has more than 640 digits (at byte offset 1)"
    sys.set_int_max_str_digits(4300)
    assert run_command(argv).exit_code == 0


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


@pytest.mark.parametrize("preset,expression,offset", [
    ("uc:g=3", "(3*omega)^1000000", 9), ("uc:g=3", "(1/3*omega)^1000000", 11),
    ("jac:g=3,d=2,r=0", "(-3*c1)^20000", 7), ("uc:g=3", "(3)^1000000", 3),
])
def test_a_one_term_power_with_an_oversized_coefficient_is_refused(
        digit_limit_4300, preset, expression, offset):
    # refused at the caret, before the coefficient's power is computed; a
    # power whose monomial truncates is not (test_nilpotent_power_is_not_refused)
    outcome = run_command(["ring", "eval", "--preset", preset, expression])
    assert (outcome.exit_code, outcome.stdout) == (2, "")
    message = f"constant power has more than 4300 digits (at byte offset {offset})"
    assert outcome.stderr == f"error: {message}"


def test_printable_constant_power_is_computed(digit_limit_4300):
    # 2^14000 has 4215 digits; (10/3)^4000 has parts of 4001 and 1909 digits
    for expression, coefficient in (("2^14000*omega^2", 2 ** 14000),
                                    ("(10/3)^4000*omega^2", Fraction(10, 3) ** 4000)):
        result = run_json(["ring", "eval", "--preset", "uc:g=3", expression,
                           "--format", "json"])["result"]
        assert result["normalized"] == f"{coefficient}*omega^2"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_spin_counts_past_the_digit_limit_exit_1(digit_limit_4300, fmt, monkeypatch):
    # the least limit, 640 digits, stands in for 4300: past it from g = 1064 on,
    # as 4300 digits is from g = 7143 on (the counts are about 2^(2g-1))
    sys.set_int_max_str_digits(640)
    calls = []
    counted = cli.boundary_degrees
    monkeypatch.setattr(cli, "boundary_degrees", lambda g, i: calls.append(i) or counted(g, i))
    outcome = run_command(["numbers", "--g", "1064", "--format", fmt])
    assert calls == []  # refused before the report is built
    assert (outcome.exit_code, outcome.stdout) == (1, "")
    assert outcome.stderr == "error: number too long to print: more than 640 digits"
    counts = run_json(["numbers", "--g", "1063", "--format", "json"])["result"]["spin_counts"]
    assert counts["total"] == 2 ** 2126


def test_a_constant_term_is_counted_in_lowest_terms(digit_limit_4300):
    # the base is (3*theta + 2)/6: its constant term 1/3 has one bit past the
    # leading one, 2/6 two, and 3^10000 has 4772 digits, too many to print
    # but too few for the refusal before the power
    outcome = run_command(["ring", "eval", "--preset", "jac:g=3,d=2,r=0",
                           "(1/2*theta + 1/3)^10000"])
    assert (outcome.exit_code, outcome.stdout) == (1, "")
    assert outcome.stderr == "error: number too long to print: more than 4300 digits"


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
