"""The package computes over exact rationals only: no module under
src/nilsym may contain a float literal or name the `float` type, and every
entry point for numbers refuses one that is not rational."""

import ast
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from nilsym import LieAlgebra, MPoly, Multivector, parse_catalog

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


def family():
    (entry,) = parse_catalog("algebra fam\ndim 3\nparam lambda\n"
                             "bracket [1,2] = lambda*e3\nend\n")
    return entry


# Each entry point for a number, with the words its refusal starts with.
ENTRY_POINTS = [
    (lambda v: LieAlgebra("g", 3, {(2, 1): {3: v}}), "the e3 coefficient of [2,1]"),
    (lambda v: Multivector(3, {0b11: v}), "a Multivector coefficient"),
    (lambda v: MPoly(1, {(0,): v}), "an MPoly coefficient"),
    (lambda v: MPoly(1, {(0,): 2}).evaluate([v]), "an MPoly point coordinate"),
    (lambda v: family().algebra({"lambda": v}), "parameter lambda"),
]


@pytest.mark.parametrize("value", [0.1, "1/2", Decimal("0.1"), MPoly(1, {(0,): 1})],
                         ids=["float", "str", "Decimal", "MPoly"])
def test_every_entry_point_refuses_a_number_that_is_not_rational(value):
    # A float 0.1 would otherwise be stored as 3602879701896397/36028797018963968.
    for build, what in ENTRY_POINTS:
        with pytest.raises(ValueError) as err:
            build(value)
        assert str(err.value) == "%s must be rational, got %r" % (what, value)


def test_every_entry_point_admits_ints_and_fractions():
    # each stores a Fraction, whichever of the two it was given
    for value in (3, Fraction(3)):
        stored = [LieAlgebra("g", 3, {(2, 1): {3: value}}).brackets[(1, 2)][3],
                  Multivector(3, {0b11: value}).terms[0b11],
                  MPoly(1, {(0,): value}).terms[(0,)],
                  MPoly(1, {(0,): 2}).evaluate([value]),
                  family().algebra({"lambda": value}).brackets[(1, 2)][3]]
        assert stored == [-3, 3, 3, 6, 3]
        assert all(type(c) is Fraction for c in stored)
