import random
from fractions import Fraction

import pytest

from nilsym import Multivector, indices_of, mask_of, wedge_sign
from nilsym.exterior import signed_sum
from helpers import random_multivector, rnd_fraction


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


def test_wedge_sorted_pair():
    assert mono(5, 2).wedge(mono(5, 3)) == mono(5, 2, 3)


def test_wedge_transposition_sign():
    assert mono(5, 3).wedge(mono(5, 2)) == -mono(5, 2, 3)


def test_wedge_repeated_index_annihilates():
    assert mono(5, 1, 2).wedge(mono(5, 1, 3)).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        mono(4, 1).wedge(mono(5, 1))


def test_wedge_power_cross_terms():
    w = mono(4, 1, 2) + mono(4, 3, 4)
    assert w.wedge_power(2) == 2 * mono(4, 1, 2, 3, 4)


def test_wedge_power_heisenberg_expansion():
    w = mono(5, 2, 3) + mono(5, 4, 5)
    assert w.wedge_power(2) == 2 * mono(5, 2, 3, 4, 5)


def test_wedge_power_degree_two_square_vanishes():
    assert mono(4, 1, 2).wedge_power(2).is_zero()


def test_wedge_power_zeroth_is_unit():
    w = mono(3, 1, 2)
    assert w.wedge_power(0) == Multivector.unit(3)


def test_add_cancels_to_empty_map():
    s = mono(4, 1, 2) + (-mono(4, 1, 2))
    assert s.is_zero() and s.terms == {}


def test_scale():
    assert Fraction(1, 2) * (2 * mono(4, 1, 2)) == mono(4, 1, 2)


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
        assert a.wedge(b) == sign * b.wedge(a)


def test_associativity_on_random_triples():
    rng = random.Random(12)
    for _ in range(40):
        dim = rng.randint(2, 6)
        a = random_multivector(rng, dim, nterms=3)
        b = random_multivector(rng, dim, nterms=3)
        c = random_multivector(rng, dim, nterms=3)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_top_degree_products_vanish():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(1, 6)
        a = random_multivector(rng, dim, nterms=3)
        b = random_multivector(rng, dim, nterms=3)
        prod = a.wedge(b)
        assert all(d <= dim for d in prod.degrees())


def test_canonicity_no_zero_coefficients_stored():
    rng = random.Random(14)
    for _ in range(40):
        dim = rng.randint(1, 6)
        a = random_multivector(rng, dim, nterms=4)
        b = random_multivector(rng, dim, nterms=4)
        for m in (a + b, a - b, a.wedge(b), rnd_fraction(rng) * a):
            assert all(c != 0 for c in m.terms.values())
        assert (a + (-1) * a).terms == {}


def test_render_canonical_text():
    m = Fraction(1, 2) * mono(5, 1, 2) - mono(5, 3, 4) + 3 * mono(5, 5)
    assert m.render() == "1/2*x1^x2 - x3^x4 + 3*x5"
    assert Multivector(4).render() == "0"
    assert Multivector.unit(4).render() == "1"
    assert (-mono(3, 1, 2)).render() == "-x1^x2"


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
    m = Fraction(2, 3) * mono(4, 1, 2) - Fraction(4, 3) * mono(4, 3, 4)
    c = m.canonical_integer_form()
    assert c == mono(4, 1, 2) - 2 * mono(4, 3, 4)
    # leading (lex-first) coefficient is made positive
    n = -mono(4, 1, 2) + mono(4, 3, 4)
    assert n.canonical_integer_form() == mono(4, 1, 2) - mono(4, 3, 4)
    assert Multivector(4).canonical_integer_form().is_zero()
