"""The package computes over exact rationals only: no module under
src/nilsym may contain a float literal or name the `float` type."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nilsym"


def float_uses(source):
    """(line, what) for each float or complex literal and each use of the
    name `float` in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
    return found


def test_scanner_finds_floats():
    assert float_uses("x = 1\ny = 'float'\n") == []
    assert float_uses("x = 1.5\n") == [(1, "1.5")]
    assert float_uses("x = 2j\n") == [(1, "2j")]
    assert float_uses("def f(y):\n    return float(y)\n") == [(2, "float")]
    assert float_uses("x: float = 0\n") == [(1, "float")]


def test_no_floats_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert {"mpoly.py", "detect.py", "linalg.py"} <= {p.name for p in modules}
    found = {p.name: float_uses(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}
