import random
from fractions import Fraction

import pytest

from nilsym import (Multivector, builtin, indices_of, mask_of,
                    verify_claimed_form, wedge_sign)
from nilsym.exterior import signed_sum
from helpers import (canonical_integer_form, combine, form, random_multivector,
                     rnd_fraction, wedge, wedge_power)


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


# Multivector has no arithmetic; `helpers.wedge` and `helpers.combine` are
# the oracles that the tests build forms with, and these cases check them.


def test_wedge_sorted_pair():
    assert wedge(mono(5, 2), mono(5, 3)) == mono(5, 2, 3)


def test_wedge_transposition_sign():
    assert wedge(mono(5, 3), mono(5, 2)) == form(5, {(2, 3): -1})


def test_wedge_repeated_index_annihilates():
    assert not wedge(mono(5, 1, 2), mono(5, 1, 3))


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(mono(4, 1), mono(5, 1))
    with pytest.raises(ValueError):
        combine((1, mono(4, 1)), (1, mono(5, 1)))


# `wedge_power` is the test oracle for the rank checks of
# `verify_claimed_form`; each case also checks that the two agree.


def test_wedge_power_cross_terms():
    w = form(4, {(1, 2): 1, (3, 4): 1})
    assert wedge_power(w, 2) == form(4, {(1, 2, 3, 4): 2})
    assert verify_claimed_form(builtin("abelian:4"), w, "symplectic").passed


def test_wedge_power_heisenberg_expansion():
    # -(x2^x3 + x4^x5) is d x1 on heisenberg:5, so x1 is a contact form
    w = form(5, {(2, 3): 1, (4, 5): 1})
    assert wedge_power(w, 2) == form(5, {(2, 3, 4, 5): 2})
    assert verify_claimed_form(builtin("heisenberg:5"), mono(5, 1), "contact").passed


def test_wedge_power_degree_two_square_vanishes():
    assert not wedge_power(mono(4, 1, 2), 2)
    report = verify_claimed_form(builtin("abelian:4"), mono(4, 1, 2), "symplectic")
    assert report.failed_checks == ("nondegenerate",)


def test_wedge_power_zeroth_is_unit():
    w = mono(3, 1, 2)
    assert wedge_power(w, 0) == Multivector(3, {0: 1})


def test_add_cancels_to_empty_map():
    s = combine((1, mono(4, 1, 2)), (-1, mono(4, 1, 2)))
    assert not s and s.terms == {}
    assert Multivector(4, {mask_of((1, 2)): Fraction(0)}).terms == {}


def test_scale():
    assert combine((Fraction(1, 2), combine((2, mono(4, 1, 2))))) == mono(4, 1, 2)


def test_monomial_outside_dimension_rejected():
    with pytest.raises(ValueError):
        Multivector(3, {mask_of((4,)): Fraction(1)})


def test_mask_round_trip_and_sign():
    assert indices_of(mask_of((1, 3, 7))) == (1, 3, 7)
    assert wedge_sign(mask_of((1,)), mask_of((2,))) == 1
    assert wedge_sign(mask_of((2,)), mask_of((1,))) == -1
    assert wedge_sign(mask_of((1, 2)), mask_of((2, 3))) == 0


def test_anticommutativity_on_random_homogeneous():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randint(2, 7)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim)
        a = random_multivector(rng, dim, nterms=3, degrees=[p])
        b = random_multivector(rng, dim, nterms=3, degrees=[q])
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == combine((sign, wedge(b, a)))


def test_associativity_on_random_triples():
    rng = random.Random(12)
    for _ in range(40):
        dim = rng.randint(2, 6)
        a = random_multivector(rng, dim, nterms=3)
        b = random_multivector(rng, dim, nterms=3)
        c = random_multivector(rng, dim, nterms=3)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_top_degree_products_vanish():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(1, 6)
        a = random_multivector(rng, dim, nterms=3)
        b = random_multivector(rng, dim, nterms=3)
        prod = wedge(a, b)
        assert all(d <= dim for d in prod.degrees())


def test_canonicity_no_zero_coefficients_stored():
    rng = random.Random(14)
    for _ in range(40):
        dim = rng.randint(1, 6)
        a = random_multivector(rng, dim, nterms=4)
        b = random_multivector(rng, dim, nterms=4)
        for m in (combine((1, a), (1, b)), combine((1, a), (-1, b)), wedge(a, b),
                  combine((rnd_fraction(rng), a))):
            assert all(c != 0 for c in m.terms.values())
        assert combine((1, a), (-1, a)).terms == {}


def test_render_canonical_text():
    m = form(5, {(1, 2): Fraction(1, 2), (3, 4): -1, (5,): 3})
    assert m.render() == "1/2*x1^x2 - x3^x4 + 3*x5"
    assert Multivector(4).render() == "0"
    assert Multivector(4, {0: 1}).render() == "1"
    assert form(3, {(1, 2): -1}).render() == "-x1^x2"


@pytest.mark.parametrize("terms, text", [
    ([], "0"),
    ([(-2, "x1"), (3, "x2")], "-2*x1 + 3*x2"),
    ([(1, "x1^x2"), (-1, "x3^x4")], "x1^x2 - x3^x4"),
    ([(Fraction(-3, 4), ""), (1, "t1")], "-3/4 + t1"),
    ([(1, "t1"), (Fraction(1, 2), "t2^2")], "t1 + 1/2*t2^2"),
])
def test_signed_sum_layout(terms, text):
    assert signed_sum(terms) == text


def test_render_with_labels():
    m = mono(6, 1, 6)
    labels = ["x1", "x2", "x3", "x4", "x5", "y"]
    assert m.render(labels) == "x1^y"


def test_canonical_integer_form():
    # the oracle that tests/test_detect.py checks every witness against
    m = form(4, {(1, 2): Fraction(2, 3), (3, 4): Fraction(-4, 3)})
    assert canonical_integer_form(m) == form(4, {(1, 2): 1, (3, 4): -2})
    # leading (lex-first) coefficient is made positive
    n = form(4, {(1, 2): -1, (3, 4): 1})
    assert canonical_integer_form(n) == form(4, {(1, 2): 1, (3, 4): -1})
    assert not canonical_integer_form(Multivector(4))
