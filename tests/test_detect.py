import random
from fractions import Fraction

import pytest

from nilsym import (LieAlgebra, MPoly, Multivector, builtin, change_basis,
                    contact_decide, contact_polynomial, direct_product,
                    parse_form, pfaffian_polynomial, product_symplectic_witness,
                    symplectic_decide, verify_claimed_form)
from helpers import (classic_pfaffian_4x4, det, oracle_contact_poly,
                     oracle_pfaffian, random_invertible, rnd_fraction,
                     skew_gram_matrix)


def mono(dim, *idxs):
    return Multivector.monomial(dim, idxs)


def times_a(name):
    return direct_product(builtin(name), builtin("abelian:1"))


# ---- Pfaffian polynomial --------------------------------------------------


def test_pfaffian_abelian4_classic():
    p, basis = pfaffian_polynomial(builtin("abelian:4"))
    t = [MPoly.variable(6, i) for i in range(6)]
    assert p == t[0] * t[5] - t[1] * t[4] + t[2] * t[3]
    assert basis == [mono(4, 1, 2), mono(4, 1, 3), mono(4, 1, 4),
                     mono(4, 2, 3), mono(4, 2, 4), mono(4, 3, 4)]
    rng = random.Random(60)
    for _ in range(10):
        a, b, c, d_, e, f = (rnd_fraction(rng) for _ in range(6))
        assert p.evaluate([a, b, c, d_, e, f]) == classic_pfaffian_4x4(
            a, b, c, d_, e, f)


def test_pfaffian_abelian2_is_t1():
    p, basis = pfaffian_polynomial(builtin("abelian:2"))
    assert p == MPoly.variable(1, 0)
    assert basis == [mono(2, 1, 2)]


def test_pfaffian_heisenberg5_times_a_vanishes():
    p, basis = pfaffian_polynomial(times_a("heisenberg:5"))
    assert p.is_zero
    assert len(basis) == 10


def test_pfaffian_matches_brute_expansion():
    for name in ("heisenberg:3", "abelian:4"):
        g = times_a(name) if g_is_odd(name) else builtin(name)
        p, basis = pfaffian_polynomial(g)
        assert p == oracle_pfaffian(basis, g.dim, g.dim // 2)


def g_is_odd(name):
    return builtin(name).dim % 2 == 1


def test_pfaffian_g13457C_times_a_matches_brute_expansion():
    g = times_a("g13457C")
    p, basis = pfaffian_polynomial(g)
    assert p == oracle_pfaffian(basis, g.dim, 4)
    assert p.is_zero


def seeded_images(g, seed, count=2):
    rng = random.Random(seed)
    return [change_basis(g, random_invertible(rng, g.dim)) for _ in range(count)]


@pytest.mark.parametrize("name,factor", [
    ("heisenberg:3", True), ("heisenberg:5", True), ("abelian:6", False),
    ("g13457C", True)])
def test_pfaffian_of_basis_changes_matches_brute_expansion(name, factor):
    g = times_a(name) if factor else builtin(name)
    for gc in seeded_images(g, 64):
        p, basis = pfaffian_polynomial(gc)
        assert p == oracle_pfaffian(basis, gc.dim, gc.dim // 2)


@pytest.mark.parametrize("name", [
    "heisenberg:3", "heisenberg:5", "g13457C", "heisenberg:7"])
def test_contact_polynomial_of_basis_changes_matches_brute_expansion(name):
    for gc in seeded_images(builtin(name), 65):
        assert contact_polynomial(gc) == oracle_contact_poly(gc)


def test_pfaffian_rejects_odd_dimension_and_violators():
    with pytest.raises(ValueError):
        pfaffian_polynomial(builtin("abelian:5"))
    bad = LieAlgebra("violator", 4, {
        (1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: -1}})
    with pytest.raises(ValueError):
        pfaffian_polynomial(bad)


# ---- symplectic decisions ---------------------------------------------------


def test_heisenberg3_times_a_is_symplectic():
    v = symplectic_decide(times_a("heisenberg:3"))
    assert v.admits and v.certificate_kind == "witness"
    assert verify_claimed_form(times_a("heisenberg:3"), v.witness,
                               "symplectic").passed


def test_heisenberg5_times_a_is_not_symplectic():
    v = symplectic_decide(times_a("heisenberg:5"))
    assert not v.admits
    assert v.witness is None
    assert v.certificate_kind == "identically-zero-pfaffian"


def test_heisenberg7_times_a_is_not_symplectic():
    assert not symplectic_decide(times_a("heisenberg:7")).admits


def test_g13457C_times_a_is_not_symplectic():
    assert not symplectic_decide(times_a("g13457C")).admits


def test_abelian8_witness_is_a_perfect_matching():
    v = symplectic_decide(builtin("abelian:8"))
    assert v.admits and v.pfaffian_nvars == 28
    assert v.witness == (mono(8, 1, 8) + mono(8, 2, 7)
                         + mono(8, 3, 6) + mono(8, 4, 5))
    assert verify_claimed_form(builtin("abelian:8"), v.witness,
                               "symplectic").passed


def test_abelian5_times_a_witness():
    g = times_a("abelian:5")
    v = symplectic_decide(g)
    assert v.admits
    assert v.witness == mono(6, 1, 6) + mono(6, 2, 5) + mono(6, 3, 4)
    assert verify_claimed_form(g, v.witness, "symplectic").passed
    # deterministic: a second run returns the identical witness
    assert symplectic_decide(g).witness == v.witness


def test_symplectic_requires_even_dim():
    with pytest.raises(ValueError):
        symplectic_decide(builtin("heisenberg:5"))


# ---- contact decisions -------------------------------------------------------


def test_heisenberg_contact_witness_is_x1():
    for n in (3, 5, 7):
        v = contact_decide(builtin("heisenberg:%d" % n))
        assert v.admits
        assert v.witness == mono(n, 1)


def test_abelian_odd_contact_fails():
    for n in (1, 3, 5, 7):
        assert not contact_decide(builtin("abelian:%d" % n)).admits


def test_three_dim_bracket_contact_witness_x3():
    g = LieAlgebra("r3", 3, {(1, 2): {3: 1}})
    v = contact_decide(g)
    assert v.admits and v.witness == mono(3, 3)


def test_g13457C_contact_matches_brute_expansion():
    g = builtin("g13457C")
    q = contact_polynomial(g)
    assert q == oracle_contact_poly(g)
    v = contact_decide(g)
    assert v.admits and v.witness == mono(7, 7)


def test_contact_polynomial_matches_oracle_heisenberg5():
    g = builtin("heisenberg:5")
    assert contact_polynomial(g) == oracle_contact_poly(g)


def test_contact_requires_odd_dim():
    with pytest.raises(ValueError):
        contact_decide(builtin("abelian:4"))


def test_contact_scaling_law():
    rng = random.Random(61)
    for name in ("heisenberg:5", "g13457C", "heisenberg:7"):
        g = builtin(name)
        q = contact_polynomial(g)
        n_plus_1 = (g.dim - 1) // 2 + 1
        for _ in range(10):
            c = rnd_fraction(rng, 5, 3)
            s = [rnd_fraction(rng) for _ in range(g.dim)]
            assert q.evaluate([c * x for x in s]) == c ** n_plus_1 * q.evaluate(s)


# ---- Pfaffian-determinant identity ------------------------------------------


def test_pfaffian_squared_is_determinant():
    rng = random.Random(62)
    for name, factor in (("abelian:4", False), ("abelian:6", False),
                         ("heisenberg:5", True), ("g13457C", True)):
        g = times_a(name) if factor else builtin(name)
        p, basis = pfaffian_polynomial(g)
        for _ in range(10):
            point = [rnd_fraction(rng) for _ in range(len(basis))]
            omega = Multivector(g.dim)
            for t, b in zip(point, basis):
                omega = omega + t * b
            assert p.evaluate(point) ** 2 == det(skew_gram_matrix(omega))


def test_skew_gram_matrix_entries():
    w = mono(3, 1, 2) + 2 * mono(3, 1, 3)
    m = skew_gram_matrix(w)
    assert m[0][1] == 1 and m[1][0] == -1
    assert m[0][2] == 2 and m[2][0] == -2
    assert m[1][2] == 0
    with pytest.raises(ValueError):
        skew_gram_matrix(mono(3, 1))


# ---- invariance ------------------------------------------------------------


def test_verdicts_invariant_under_basis_change():
    rng = random.Random(63)
    for name in ("heisenberg:3", "heisenberg:5", "abelian:5", "g13457C"):
        g = builtin(name)
        sym = symplectic_decide(times_a(name)).admits
        con = contact_decide(g).admits
        for _ in range(2):
            t = random_invertible(rng, g.dim)
            gc = change_basis(g, t)
            gca = direct_product(gc, builtin("abelian:1"))
            assert symplectic_decide(gca).admits == sym
            assert contact_decide(gc).admits == con


# ---- claimed forms -----------------------------------------------------------


def test_verify_claimed_form_table_row_a5():
    form = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
    report = verify_claimed_form(times_a("abelian:5"), form, "symplectic")
    assert report.passed
    assert report.checks == (("closed", True), ("nondegenerate", True))


def test_verify_claimed_form_fails_closedness_on_heisenberg():
    form = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
    report = verify_claimed_form(times_a("heisenberg:5"), form, "symplectic")
    assert not report.passed
    assert report.failed_checks == ("closed",)
    assert report.summary() == "fail: closed"


def test_verify_claimed_form_contact_on_heisenberg7():
    report = verify_claimed_form(builtin("heisenberg:7"), mono(7, 1), "contact")
    assert report.passed


def test_verify_claimed_form_parity_and_degree_errors():
    with pytest.raises(ValueError):
        verify_claimed_form(builtin("abelian:5"), mono(5, 1, 2), "symplectic")
    with pytest.raises(ValueError):
        verify_claimed_form(builtin("abelian:4"), mono(4, 1), "contact")
    with pytest.raises(ValueError, match="one-dimensional"):
        verify_claimed_form(builtin("abelian:1"), mono(1, 1), "contact")
    with pytest.raises(ValueError):
        verify_claimed_form(builtin("abelian:4"), mono(4, 1), "symplectic")
    with pytest.raises(ValueError):
        verify_claimed_form(builtin("abelian:4"), mono(4, 1, 2), "nonsense")


# ---- product witnesses --------------------------------------------------------


def test_product_witness_two_abelian5_copies():
    a5 = builtin("abelian:5")
    w = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
    spliced = product_symplectic_witness(w, w, a5, a5)
    expected = (mono(10, 1, 2) + mono(10, 3, 4) + mono(10, 5, 10)
                + mono(10, 6, 7) + mono(10, 8, 9))
    assert spliced == expected
    prod = direct_product(a5, a5)
    assert verify_claimed_form(prod, spliced, "symplectic").passed


def test_product_witness_from_decided_witnesses():
    # witness-level consistency of the product construction on bundled data
    for name in ("abelian:5", "heisenberg:3"):
        g = builtin(name)
        v = symplectic_decide(times_a(name))
        assert v.admits
        spliced = product_symplectic_witness(v.witness, v.witness, g, g)
        prod = direct_product(g, g)
        assert verify_claimed_form(prod, spliced, "symplectic").passed


def test_product_witness_requires_a_y_term():
    a5 = builtin("abelian:5")
    no_y = parse_form("x1^x2 + x3^x4", 5, has_y=True)
    good = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
    with pytest.raises(ValueError):
        product_symplectic_witness(no_y, good, a5, a5)
    two_y = parse_form("x1^y + x2^y + x3^x4", 5, has_y=True)
    with pytest.raises(ValueError):
        product_symplectic_witness(two_y, good, a5, a5)


def test_product_witness_requires_closed_y_partner():
    h5 = builtin("heisenberg:5")
    w = parse_form("x2^x3 + x4^x5 + x1^y", 5, has_y=True)  # dx1 != 0
    with pytest.raises(ValueError):
        product_symplectic_witness(w, w, h5, h5)


def test_product_witness_dimension_check():
    a5 = builtin("abelian:5")
    w = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
    with pytest.raises(ValueError):
        product_symplectic_witness(w, w, builtin("abelian:4"), a5)


def test_detection_runs_on_non_nilpotent_input():
    # the criteria are valid for any Lie algebra; non-nilpotency is flagged
    # by the central series, not refused here
    sl2 = LieAlgebra("sl2", 3, {
        (1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    v = contact_decide(sl2)
    assert v.admits
    assert verify_claimed_form(sl2, v.witness, "contact").passed
    assert isinstance(symplectic_decide(times_a("abelian:1")).admits, bool)
