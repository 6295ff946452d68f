import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddspin import bn, cli, picard
from oddspin.numerics import MukaiProfile, SpinCounts
from oddspin.picard import PicBasis, moduli_basis, solve_zg, spin_basis
from oddspin.record import MEMOS, Record
from oddspin.ring import RingElem, RingPreset, preset_jacobian_product

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cold_import_generates_no_code():
    # no generated code, no argparse or gettext for the command line, and
    # no json package for the reports; -S keeps site-packages' .pth files
    # from loading typing first
    probe = ("import sys, oddspin.cli; print(' '.join(m for m in ('dataclasses', 'inspect',"
             " 'ast', 'typing', 'argparse', 'gettext', 'json') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_equal_records_are_equal_and_hash_equal():
    first, second = preset_jacobian_product(3, 2, 0), preset_jacobian_product(3, 2, 0)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != preset_jacobian_product(3, 2, 1)
    theta = first.gen("theta")
    elem = RingElem(first, theta.numerators, theta.denominator)
    assert elem == first.gen("theta") and hash(elem) == hash(second.gen("theta"))
    assert {first: 1}[second] == 1


def test_private_slots_stay_out_of_equality_and_repr():
    names = ("lambda", "delta0", "delta1")
    basis = PicBasis("moduli", 3, names)
    assert basis == moduli_basis(3) and hash(basis) == hash(moduli_basis(3))
    assert repr(basis) == "PicBasis(space='moduli', g=3, names=('lambda', 'delta0', 'delta1'))"
    assert [basis.index(name) for name in names] == [0, 1, 2]


def test_records_of_different_types_are_unequal():
    class Pair(Record):
        __slots__ = ("left", "right")

    class OtherPair(Record):
        __slots__ = ("left", "right")

    assert Pair(1, 2) == Pair(left=1, right=2)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert SpinCounts(7, 1, 2) != MukaiProfile(7, 1, 2, 0)


def test_records_are_immutable():
    counts = SpinCounts(3, 36, 28)
    with pytest.raises(AttributeError, match="immutable"):
        counts.g = 4
    with pytest.raises(AttributeError, match="immutable"):
        del counts.n_odd
    with pytest.raises(AttributeError):
        counts.extra = 1
    assert counts == SpinCounts(3, 36, 28)


def test_repr_is_in_the_dataclass_format():
    assert repr(SpinCounts(3, n_even=36, n_odd=28)) == "SpinCounts(g=3, n_even=36, n_odd=28)"
    outcome = cli.run_command(["pic", "solve-zg", "--g", "2"])
    assert repr(outcome) == (
        "CommandOutcome(exit_code=1, stdout='',"
        " stderr='error: spin Picard basis needs g >= 3')"
    )


@pytest.mark.parametrize("args,kwargs", [
    ((3, 36), {}),
    ((3, 36, 28, 1), {}),
    ((3, 36), {"g": 3}),
    ((3, 36), {"total": 64}),
])
def test_construction_needs_each_field_once(args, kwargs):
    with pytest.raises(TypeError, match="takes the fields g, n_even, n_odd"):
        SpinCounts(*args, **kwargs)


def test_traced_methods_stay_in_their_class_dict():
    # the benchmark's tracer wraps these from the class __dict__
    assert {"__mul__", "__pow__"} <= RingElem.__dict__.keys()
    assert "element" in RingPreset.__dict__


def test_a_solve_zg_sweep_builds_each_basis_once(cold_memos):
    for g in range(3, 13):
        solve_zg(g)
        assert picard.test_curve("F", g, 1).basis is spin_basis(g)
    assert cold_memos()["spin_basis"].misses == 10


def test_every_memo_is_a_record_memo_with_one_bound_and_typed_keys(cold_memos):
    uses, declared = [], set()
    for path in sorted(SRC.joinpath("oddspin").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            name = f"{path.stem}.{getattr(top, 'name', '')}"
            uses += [name for node in ast.walk(top)
                     if getattr(node, "id", getattr(node, "attr", "")) in ("lru_cache", "cache")]
            if "memo" in map(ast.unparse, getattr(top, "decorator_list", ())):
                declared.add(name)
    # the per-call operand cache of one expression run is the one other cache
    assert sorted(uses) == ["exprparse._run", "record.memo"]
    assert len(declared) == len(MEMOS) == 11
    assert {f"{m.__module__}.{m.__name__}" for m in MEMOS} == {f"oddspin.{d}" for d in declared}
    assert all(m.cache_parameters() == {"maxsize": 64, "typed": True} for m in MEMOS)
    for m in range(100):
        bn._schur_expansion(1, (0,) * m)
    assert cold_memos()["_schur_expansion"].currsize == 64
