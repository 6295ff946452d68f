"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import oracles as o  # noqa: E402
import workloads as w  # noqa: E402
from run import layer_values  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import import_engine, run_workload  # noqa: E402

oddspin = import_engine()


def _argvs(seed: int) -> list:
    wl = w.build("ring_fuzz", seed)
    return [wl.ops[i].argv for i in wl.order]


def _run(ops, digest=None) -> dict:
    return run_workload(w.Workload("test", tuple(ops), tuple(range(len(ops))), digest), oddspin)


def test_ring_fuzz_is_deterministic_per_seed_and_differs_across_seeds():
    assert _argvs(7) == _argvs(7)
    assert _argvs(7) != _argvs(8)
    assert len(_argvs(7)) == sum(w.RING_FUZZ_COUNTS.values())


def test_other_workloads_are_fixed_sets_in_seeded_order():
    for name in ("session", "bn_ladder"):
        first, second = w.build(name, 1), w.build(name, 2)
        assert first.ops != second.ops or first.order != second.order
        assert sorted(map(repr, first.ops)) == sorted(map(repr, second.ops))


def test_corrupted_golden_is_a_counted_failure():
    good = w.CliOp(("numbers", "--g", "3"), expected={"scorza_genus": 19})
    corrupted = w.CliOp(("numbers", "--g", "3"), expected={"scorza_genus": 20})
    wrong_exit = w.CliOp(("ring", "eval", "--preset", "uc:g=3", "eta"), exit_code=0)
    crashing = w.TautOp("evaluate_taut_recursion", 16, 3, 17, "theta")  # h^1 != 1
    out = _run([good, corrupted, wrong_exit, crashing], digest="0" * 64)
    assert out["attempted"] == 5
    assert len(out["failures"]) == 4
    assert "scorza_genus = 19, expected 20" in out["failures"][0]
    assert "exit 2, expected 0" in out["failures"][1]
    assert "uncaught PreconditionError" in out["failures"][2]
    assert "digest" in out["failures"][3]


def test_session_digest_matches_recorded_bytes():
    wl = w.build("session", 3)
    assert run_workload(wl, oddspin)["failures"] == []


def test_ladder_oracles_agree_with_both_evaluators_at_the_smallest_rung():
    # (4, 1, 4): rho = 2 is the least that holds eta*c2*c1^(rho-2), and h^1 = 1
    assert o.rho(4, 1, 4) == 2
    ops = [w.TautOp(ev, 4, 1, 4, i) for ev in ("evaluate_taut", "evaluate_taut_recursion")
           for i in w.INTEGRANDS]
    assert _run(ops)["failures"] == []


def test_ring_oracles_agree_with_the_engine_at_the_smallest_presets():
    jac = [(1, 2, 3), (Fraction(1, 2), -1, 1)]
    surface = ([1, 0, 2], [0, 1, -1])
    uc = ([2, 1], [1, -3])
    ops = [
        w._ring_op("jac:g=1,d=0,r=0", w._product(jac, o.JAC_NAMES), o.JAC_NAMES,
                   w._poly_of(jac, lambda p: o.jac_reduce(p, 1)), o.jac_integral(jac, 1),
                   "integrate"),
        w._ring_op("surface:g=2", w._product(surface, o.SURFACE_NAMES), o.SURFACE_NAMES,
                   w._poly_of(surface), o.surface_pairing(*surface, 2), "integrate"),
        w._ring_op("uc:g=2", w._product(uc, o.UC_NAMES), o.UC_NAMES, w._poly_of(uc),
                   o.uc_pushforward(w._poly_of(uc), 2),
                   "relative-pushforward (lambda coefficient)"),
    ]
    # a product of g+1 = 2 forms integrates to 1! (a1 c2 + a2 c1 - 2 b1 b2)
    assert o.jac_integral(jac, 1) == 1 * 1 + Fraction(1, 2) * 3 - 2 * 2 * -1
    assert _run(ops)["failures"] == []


def test_picard_oracles_agree_with_the_engine_at_the_smallest_genus():
    smallest = {"3", "13"}
    ops = [op for op in w.session_ops() if smallest & set(op.argv) and "d12" not in op.argv]
    assert {op.argv[:2] for op in ops} == {
        ("cert", "--g"), ("pic", "solve-zg"), ("numbers", "--g"), ("pic", "push"), ("pic", "pull")
    }
    assert _run(ops)["failures"] == []


def test_tracer_records_layers_and_restores_the_engine():
    original = oddspin.cli.run_command
    with Tracer() as tracer:
        assert oddspin.cli.run_command is not original
        _run([w.CliOp(("ring", "eval", "--preset", "jac:g=4,d=4,r=1", "eta*c1^2"))])
    assert oddspin.cli.run_command is original
    layers = layer_values(tracer.layer_metrics())
    assert layers["cli.run_command.calls"] == 1
    assert layers["bn.evaluate_taut.calls"] == 1
    assert layers["exprparse.parse_expression.s"] > 0
    assert 0 < layers["bn.ht_value.nonzero_ratio"] <= 1
    assert layers["cli.run_command.self_s"] > 0


def test_nominal_seconds_scale_wall_time_by_the_host_speed():
    nominal_ns = int(hostspeed.NOMINAL_REF_S * 1e9)
    assert hostspeed.nominal_s(10**9, nominal_ns, nominal_ns) == 1.0
    # a host twice as slow takes twice the wall time for the same nominal time
    assert hostspeed.nominal_s(2 * 10**9, 2 * nominal_ns, 2 * nominal_ns) == 1.0
    out = _run([w.CliOp(("numbers", "--g", "3"), expected={"scorza_genus": 19})])
    assert out["wall_s"] > 0 and out["nominal_s"] > 0
