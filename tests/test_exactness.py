"""The library never constructs a floating-point value, and takes a genus,
rank, degree or index only as an int."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

import oddspin
from oddspin.errors import PreconditionError
from oddspin.numerics import boundary_degrees, mukai_profile, rho, theta_counts
from oddspin.picard import canonical_class, moduli_basis, spin_basis, zg_class
from oddspin.ring import (
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
)

FLOAT_MATH = {"sqrt", "log", "exp"}


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                yield node.lineno, "float() call"
            elif (isinstance(func, ast.Attribute) and func.attr in FLOAT_MATH
                  and isinstance(func.value, ast.Name) and func.value.id == "math"):
                yield node.lineno, f"math.{func.attr}() call"


def test_no_floating_point_in_the_library():
    # the guard sees each kind of float use, so an empty report means something
    sample = "x = 0.5\ny = float(3)\nimport math\nz = math.sqrt(2)\nw = math.log(2)"
    assert sorted(what for _, what in _float_uses(ast.parse(sample))) == [
        "float literal 0.5", "float() call", "math.log() call", "math.sqrt() call"]
    sources = sorted(Path(oddspin.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


# (function, valid arguments, index of the argument replaced by a non-int 7)
INT_GATED = [
    (rho, (7, 7, 7), 0),
    (rho, (7, 7, 7), 1),
    (rho, (7, 7, 7), 2),
    (theta_counts, (7,), 0),
    (boundary_degrees, (7, 3), 0),
    (boundary_degrees, (14, 7), 1),
    (mukai_profile, (7,), 0),
    (preset_jacobian_product, (7, 7, 7), 0),
    (preset_jacobian_product, (7, 7, 7), 1),
    (preset_jacobian_product, (7, 7, 7), 2),
    (preset_surface_product, (7,), 0),
    (preset_universal_curve, (7,), 0),
    (spin_basis, (7,), 0),
    (moduli_basis, (7,), 0),
    (canonical_class, ("spin", 7), 1),
    (canonical_class, ("moduli", 7), 1),
    (zg_class, (7,), 0),
]


@pytest.mark.parametrize("function,args,slot", INT_GATED,
                         ids=[f"{f.__name__}-{'-'.join(map(str, args))}-arg{slot}"
                              for f, args, slot in INT_GATED])
def test_library_boundary_takes_only_ints(function, args, slot):
    # the int call runs first, so a memo that keys 7.0 or Fraction(7) as 7
    # would hand back the cached value instead of refusing
    function(*args)
    for bad in (7.0, Fraction(7), True, "7"):
        given = list(args)
        given[slot] = bad
        with pytest.raises(PreconditionError, match="must be an int"):
            function(*given)
