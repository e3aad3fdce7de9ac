import random
from fractions import Fraction

import pytest

from nilsym import MPoly, find_nonvanishing_point
from nilsym.mpoly import _substituted
from helpers import brute_grid_first_nonzero, random_mpoly, rnd_fraction


def pf_like():
    """t1*t6 - t2*t5 + t3*t4 in six variables."""
    return MPoly(6, {(0, 5): 1, (1, 4): -1, (2, 3): 1})


def test_is_zero():
    assert MPoly(4).is_zero
    assert not pf_like().is_zero
    # the term map is canonical: zero coefficients are dropped
    assert MPoly(2, {(0, 0): 0, (0, 1): Fraction(0)}).is_zero
    assert MPoly(2, {(0, 0): 0, (1,): 1}).terms == {(1,): 1}


def test_evaluate_examples():
    p = pf_like()
    assert p.evaluate([1, 0, 0, 0, 0, 1]) == 1
    q = MPoly(3, {**random_mpoly(random.Random(1), 3).terms, (): Fraction(7, 2)})
    assert q.evaluate([0, 0, 0]) == Fraction(7, 2)
    assert MPoly(1, {(0, 0): 1}).evaluate([Fraction(3, 2)]) == Fraction(9, 4)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        pf_like().evaluate([1, 2, 3])


def test_find_nonvanishing_point_matches_brute_force():
    p = pf_like()
    expected = brute_grid_first_nonzero(p)
    assert expected == (0, 0, 1, 1, 0, 0)
    assert tuple(find_nonvanishing_point(p)) == expected


def test_find_nonvanishing_point_single_variable():
    assert find_nonvanishing_point(MPoly(1, {(0,): 1})) == [1]


def test_find_nonvanishing_point_product():
    assert find_nonvanishing_point(MPoly(2, {(0, 1): 1})) == [1, 1]


def test_find_nonvanishing_point_rejects_zero():
    with pytest.raises(ValueError):
        find_nonvanishing_point(MPoly(3))


def test_witness_always_nonvanishing():
    rng = random.Random(23)
    found = 0
    while found < 25:
        p = random_mpoly(rng, rng.randint(1, 4), nterms=rng.randint(1, 5))
        if p.is_zero:
            continue
        found += 1
        w = find_nonvanishing_point(p)
        assert p.evaluate(w) != 0
        assert tuple(w) == brute_grid_first_nonzero(p)


def test_witness_is_invariant_under_rational_scaling():
    # The search scales p to integers once; any nonzero rational multiple,
    # large denominators included, has the same zeros, so the same point.
    rng = random.Random(25)
    found = 0
    while found < 25:
        p = random_mpoly(rng, rng.randint(1, 4), nterms=rng.randint(1, 5))
        if p.is_zero:
            continue
        found += 1
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12),
                     rng.randint(10 ** 15, 10 ** 18))
        w = find_nonvanishing_point(
            MPoly(p.nvars, {k: c * v for k, v in p.terms.items()}))
        assert tuple(w) == tuple(find_nonvanishing_point(p)) == brute_grid_first_nonzero(p)
        assert all(type(v) is int for v in w)


def test_nvars_mismatch():
    assert MPoly(2) != MPoly(3)
    assert MPoly(2, {(0,): 1}) != MPoly(3, {(0,): 1})


def test_str_rendering():
    assert str(pf_like()) == "t1*t6 - t2*t5 + t3*t4"
    assert str(MPoly(2)) == "0"


def test_monomials_are_sorted_index_tuples():
    p = MPoly(3, {(0, 0, 2): 1, (): 5})
    assert p.terms == {(0, 0, 2): 1, (): 5}
    assert str(p) == "5 + t1^2*t3"
    assert str(MPoly(2, {(1, 1): 1})) == "t2^2"  # not t1*t2
    assert p.total_degree() == 3


@pytest.mark.parametrize("key", [(1, 0), (3,), (-1,), 0, (0.0,), ("a",)])
def test_constructor_rejects_bad_monomials(key):
    with pytest.raises(ValueError):
        MPoly(3, {key: 1})


def test_exponent_vectors_are_rejected():
    with pytest.raises(ValueError):
        MPoly(2, {(1, 0): 1})


def test_substitute_fixes_one_variable():
    rng = random.Random(24)
    for _ in range(40):
        nv = rng.randint(1, 4)
        p = random_mpoly(rng, nv, nterms=rng.randint(1, 6), maxdeg=5)
        x = [rnd_fraction(rng) for _ in range(nv)]
        for i in range(nv):
            for v in (Fraction(0), Fraction(1), rnd_fraction(rng)):
                q = MPoly(nv, _substituted(p.terms, i, v))
                assert all(i not in key for key in q.terms)
                y = list(x)
                y[i] = v
                assert q.evaluate(x) == p.evaluate(y)


# str() of seeded random polynomials, pinned from the exponent-vector
# representation this one replaced: the term order and layout must not move.
STR_PINS = [
    "-3 + 9/2*t1^2 - t1^3",
    "-3/2 + 2*t2*t3*t4 - 5/2*t1*t2^2*t4",
    "-3/2*t1*t4^3",
    "-7*t1*t2^2 - 1/2*t1*t4^2",
    "-7/2 - 7/2*t1*t3 + 5*t1*t4 + 4/3*t1*t2*t4",
    "3 - 3/4*t1*t2",
    "-7/2*t1*t3 - 8*t2*t3",
    "5 + 7/3*t1*t2*t3 - t1*t2^2*t3 + 5/4*t1*t2*t3^2 + 7/3*t2*t3^3",
    "t1*t2 + 5/3*t2^2 + 2*t1*t2^2*t3",
    "-2 - 1/2*t1^2 + 9/4*t1^3",
    "9/4 + 5/2*t1 - 2/3*t1^2 - 2/3*t1^4",
    "-3 + 2*t2*t3*t4",
    "4*t1*t2*t3*t4",
    "-1/4*t1 + 5/2*t1^3 - 1/2*t1^4",
    "-t1",
    "3/4*t1^4",
    "1/4 - 6*t1*t2",
    "-4/3 + 9/2*t1*t3^2 + 2*t1^2*t2^2",
    "-t1^3",
    "-9*t1^2 + 5/2*t2^2 - t1^3*t2 + 3*t1^2*t2^2 - 3/2*t2^4",
]


def test_str_of_random_polynomials_is_pinned():
    rng = random.Random(19)
    for expected in STR_PINS:
        nv = rng.randint(1, 4)
        p = random_mpoly(rng, nv, nterms=rng.randint(1, 6), maxdeg=4)
        assert str(p) == expected
