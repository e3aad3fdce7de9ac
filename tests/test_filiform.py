"""End-to-end fixtures on the standard filiform family [e1,ei] = e_{i+1},
exercising catalog input through every analysis layer.  Every expected
value below was derived by hand (central series by membership, Betti
numbers from the d-matrix ranks, the Pfaffian from the perfect-matching
expansion) and cross-checked against the brute-expansion oracle.
"""

from fractions import Fraction

from nilsym import (MPoly, Multivector, betti_numbers, build_complex,
                    contact_decide, contact_polynomial, direct_product,
                    builtin, mask_of, parse_catalog, pfaffian_polynomial,
                    symplectic_decide, upper_central_series,
                    verify_claimed_form)
from helpers import form, oracle_pfaffian

FILIFORM_CAT = """\
algebra filiform:4
dim 4
bracket [1,2] = e3
bracket [1,3] = e4
end

algebra filiform:5
dim 5
bracket [1,2] = e3
bracket [1,3] = e4
bracket [1,4] = e5
end
"""


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


def entries():
    return {e.name: e.algebra() for e in parse_catalog(FILIFORM_CAT)}


def test_filiform_central_series():
    algebras = entries()
    assert upper_central_series(algebras["filiform:4"]).dims == (1, 2, 4)
    assert upper_central_series(algebras["filiform:5"]).dims == (1, 2, 3, 5)


def test_filiform4_betti():
    # rank(d1) = 2 and rank(d2) = 2 by listing the six monomial images
    c = build_complex(entries()["filiform:4"])
    assert betti_numbers(c) == (1, 2, 2, 2, 1)


def test_filiform4_pfaffian_and_witness():
    f4 = entries()["filiform:4"]
    p, basis = pfaffian_polynomial(f4)
    assert basis == [mono(4, 1, 2), mono(4, 1, 3), mono(4, 1, 4), mono(4, 2, 3)]
    assert p == MPoly(4, {(2, 3): 1})  # only x1x4 ^ x2x3 reaches the top monomial
    v = symplectic_decide(f4)
    assert v.witness == form(4, {(1, 4): 1, (2, 3): 1})


def test_filiform5_has_no_contact_form():
    # every generator differential contains x1, so (d alpha)^2 = 0 for any
    # 1-form and the contact polynomial vanishes identically
    f5 = entries()["filiform:5"]
    assert contact_polynomial(f5).is_zero
    assert not contact_decide(f5).admits


def test_filiform5_times_a_pfaffian():
    f5a = direct_product(entries()["filiform:5"], builtin("abelian:1"))
    p, basis = pfaffian_polynomial(f5a)
    assert basis[7] == form(6, {(2, 5): -1, (3, 4): 1})
    assert p == MPoly(8, {(3, 6, 7): -1, (4, 7, 7): -1})
    assert p == oracle_pfaffian(basis, 6, 3)
    v = symplectic_decide(f5a)
    assert v.admits
    assert v.witness == form(6, {(1, 6): 1, (2, 5): -1, (3, 4): 1})
    assert verify_claimed_form(f5a, v.witness, "symplectic").passed


def test_kodaira_thurston_pfaffian():
    h3a = direct_product(builtin("heisenberg:3"), builtin("abelian:1"))
    p, basis = pfaffian_polynomial(h3a)
    assert basis == [mono(4, 1, 2), mono(4, 1, 3), mono(4, 2, 3),
                     mono(4, 2, 4), mono(4, 3, 4)]
    assert p == MPoly(5, {(0, 4): 1, (1, 3): -1})
    assert symplectic_decide(h3a).witness == form(4, {(1, 3): 1, (2, 4): 1})
