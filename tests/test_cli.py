import json

import pytest

from oddspin.cli import run_command


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
