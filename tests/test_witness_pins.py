"""Exact witness strings of `symplectic_decide` and `contact_decide`.

The decisions pick the lex-least grid point of the Pfaffian or contact
polynomial, so these strings change if the polynomial's terms or its
variable order change.  Any rewrite of the expansion must leave them as
they are; the benchmark's pinned JSON bytes rest on the same strings.
"""

import random

import pytest

from nilsym import builtin, contact_decide, direct_product, symplectic_decide
from helpers import change_basis, filiform, random_invertible


def times_a(g):
    return direct_product(g, builtin("abelian:1"))


def image(g, seed):
    """A seeded basis change of g; the seeds below give non-unit constants."""
    return change_basis(g, random_invertible(random.Random(seed), g.dim))


SYMPLECTIC = [
    ("abelian:6", lambda: builtin("abelian:6"),
     "x1^x6 + x2^x5 + x3^x4", 15),
    ("heisenberg:3 x a", lambda: times_a(builtin("heisenberg:3")),
     "x1^x3 + x2^y", 5),
    ("g13457C x a", lambda: times_a(builtin("g13457C")), None, 11),
    ("filiform:5 x a", lambda: times_a(filiform(5)),
     "x1^y - x2^x5 + x3^x4", 8),
    ("filiform:6 image 151", lambda: image(filiform(6), 151),
     "2*x1^x2 - 15*x1^x3 - 4*x1^x5 - 28*x1^x6 - x2^x3 + 4*x2^x5 - 4*x2^x6"
     " - 16*x3^x5 + 32*x4^x6 + 32*x5^x6", 7),
    ("g13457C image 143 x a", lambda: times_a(image(builtin("g13457C"), 143)),
     None, 11),
]

CONTACT = [
    ("heisenberg:3", lambda: builtin("heisenberg:3"), "x1"),
    ("g13457C", lambda: builtin("g13457C"), "x7"),
    ("filiform:5", lambda: filiform(5), None),
    ("g13457C image 143", lambda: image(builtin("g13457C"), 143), "x5"),
    ("heisenberg:5 image 142", lambda: image(builtin("heisenberg:5"), 142), "x5"),
]


def test_images_have_non_unit_constants():
    for g in (image(filiform(6), 151), image(builtin("g13457C"), 143),
              image(builtin("heisenberg:5"), 142)):
        constants = {c for combo in g.brackets.values() for c in combo.values()}
        assert any(abs(c) != 1 for c in constants), g.name


@pytest.mark.parametrize("label,make,witness,nvars", SYMPLECTIC,
                         ids=[case[0] for case in SYMPLECTIC])
def test_symplectic_witness_is_pinned(label, make, witness, nvars):
    g = make()
    v = symplectic_decide(g)
    assert v.pfaffian_nvars == nvars
    assert v.pfaffian_degree == g.dim // 2
    if witness is None:
        assert not v.admits and v.witness is None
        assert v.certificate_kind == "identically-zero-pfaffian"
    else:
        assert v.admits and v.certificate_kind == "witness"
        assert v.witness.render(g.dual_labels) == witness


@pytest.mark.parametrize("label,make,witness", CONTACT,
                         ids=[case[0] for case in CONTACT])
def test_contact_witness_is_pinned(label, make, witness):
    g = make()
    v = contact_decide(g)
    if witness is None:
        assert not v.admits and v.witness is None
    else:
        assert v.admits and v.witness.render(g.dual_labels) == witness
