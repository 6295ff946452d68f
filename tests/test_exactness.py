"""The library never constructs a floating-point value."""
import ast
from pathlib import Path

import oddspin

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
