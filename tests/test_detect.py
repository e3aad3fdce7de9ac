import random
from fractions import Fraction
from pathlib import Path

import pytest

from nilsym import (LieAlgebra, MPoly, Multivector, build_complex, builtin,
                    cocycle_basis, contact_decide, detect,
                    contact_polynomial, direct_product, mask_of, parse_catalog_file,
                    parse_form, pfaffian_polynomial, symplectic_decide,
                    verify_claimed_form)
from nilsym.detect import _closed_two_forms
from helpers import (change_basis, classic_pfaffian_4x4, det, oracle_contact_poly,
                     oracle_pfaffian, random_invertible, random_nilpotent,
                     rnd_fraction, skew_gram_matrix, splice_line_witnesses)

BUNDLED_CATALOG = Path(__file__).resolve().parent.parent / "catalogs" / "bundled.cat"


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


def times_a(name):
    return direct_product(builtin(name), builtin("abelian:1"))


# ---- Pfaffian polynomial --------------------------------------------------


def test_pfaffian_abelian4_classic():
    p, basis = pfaffian_polynomial(builtin("abelian:4"))
    t = [MPoly(6, {(i,): 1}) for i in range(6)]
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
    assert p == MPoly(1, {(0,): 1})
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
    with pytest.raises(ValueError) as err:
        pfaffian_polynomial(bad)
    assert str(err.value) == ("the symplectic decision requires the Jacobi "
                              "identity; violated at (1, 2, 3) in violator")


def test_contact_polynomial_rejects_violators():
    bad = LieAlgebra("violator", 3, {
        (1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: -1}})
    with pytest.raises(ValueError) as err:
        contact_polynomial(bad)
    assert str(err.value) == ("the contact decision requires the Jacobi "
                              "identity; violated at (1, 2, 3) in violator")


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
    spliced = splice_line_witnesses(w, 5)
    expected = (mono(10, 1, 2) + mono(10, 3, 4) + mono(10, 5, 10)
                + mono(10, 6, 7) + mono(10, 8, 9))
    assert spliced == expected
    prod = direct_product(a5, a5)
    assert verify_claimed_form(prod, spliced, "symplectic").passed


def test_product_witness_from_decided_witnesses():
    # witness-level consistency of the product construction on bundled data
    for name in ("abelian:5", "heisenberg:3"):
        g = builtin(name)
        v = symplectic_decide(g, times_a=True)
        assert v.admits
        spliced = splice_line_witnesses(v.witness, g.dim)
        prod = direct_product(g, g)
        assert verify_claimed_form(prod, spliced, "symplectic").passed


# ---- g x a decided on g's complex -----------------------------------------


def split_cases():
    """The bundled catalog, two seeded random nilpotent algebras of each
    dimension 1-9, and basis changes of the odd ones among the first, whose
    differentials are dense and whose closed 1-forms are no coordinates."""
    rng = random.Random(68)
    bundled = [e.algebra() for e in parse_catalog_file(BUNDLED_CATALOG)]
    randoms = [random_nilpotent(rng, dim) for dim in range(1, 10) for _ in range(2)]
    hidden = [change_basis(g, random_invertible(rng, g.dim))
              for g in bundled + randoms[:12] if g.dim % 2]
    return bundled + randoms + hidden


def test_times_a_decided_on_g_equals_the_product_decision():
    # Z^2(g x a) = Z^2(g) + Z^1(g) ^ y, merged in lex order, gives the
    # product's basis vector for vector, so the Pfaffian term by term and
    # the witness.
    line = builtin("abelian:1")
    for g in split_cases():
        product = direct_product(g, line)
        assert (_closed_two_forms(build_complex(g), True)
                == cocycle_basis(build_complex(product), 2)), g.name
        if g.dim % 2:
            p, basis = pfaffian_polynomial(g, times_a=True)
            q, product_basis = pfaffian_polynomial(product)
            assert basis == product_basis, g.name
            assert (p.nvars, p.terms) == (q.nvars, q.terms), g.name
            assert symplectic_decide(g, times_a=True) == symplectic_decide(product)


def test_times_a_on_one_dimensional_g():
    # Z^2 of a line is empty: the basis is x1 ^ y alone.
    g = builtin("abelian:1")
    p, basis = pfaffian_polynomial(g, times_a=True)
    assert basis == [mono(2, 1, 2)] and p == MPoly(1, {(0,): 1})
    v = symplectic_decide(g, times_a=True)
    assert v.admits and v.witness == mono(2, 1, 2)


def test_times_a_needs_odd_g_and_jacobi():
    with pytest.raises(ValueError) as err:
        symplectic_decide(builtin("abelian:4"), times_a=True)
    assert str(err.value) == ("a symplectic form needs even dimension; "
                              "abelian:4 x abelian:1 has dim 5")
    bad = LieAlgebra("violator", 3, {
        (1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: -1}})
    with pytest.raises(ValueError) as err:
        pfaffian_polynomial(bad, times_a=True)
    assert str(err.value) == ("the symplectic decision requires the Jacobi "
                              "identity; violated at (1, 2, 3) in violator")


def test_pfaffian_budget_bounds_every_step(monkeypatch):
    # abelian:8's Pfaffian holds 7, 7*5, 7*5*3 and 7!! = 105 terms after
    # steps 1 to 4, so 105 is the least budget that decides it.
    g = builtin("abelian:8")
    verdict = symplectic_decide(g)
    monkeypatch.setattr(detect, "PFAFFIAN_BUDGET", 105)
    assert symplectic_decide(builtin("abelian:8")) == verdict
    monkeypatch.setattr(detect, "PFAFFIAN_BUDGET", 104)
    with pytest.raises(ValueError) as err:
        symplectic_decide(builtin("abelian:8"))
    assert str(err.value) == ("the Pfaffian of abelian:8 is over the budget of "
                              "104 terms at step 3 of 4")
    monkeypatch.setattr(detect, "PFAFFIAN_BUDGET", 0)
    with pytest.raises(ValueError) as err:
        contact_decide(builtin("heisenberg:5"))
    assert str(err.value) == ("the contact polynomial of heisenberg:5 is over "
                              "the budget of 0 terms at step 1 of 2")


def test_detection_runs_on_non_nilpotent_input():
    # the criteria are valid for any Lie algebra; non-nilpotency is flagged
    # by the central series, not refused here
    sl2 = LieAlgebra("sl2", 3, {
        (1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    v = contact_decide(sl2)
    assert v.admits
    assert verify_claimed_form(sl2, v.witness, "contact").passed
    assert isinstance(symplectic_decide(times_a("abelian:1")).admits, bool)
