import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilsym.linalg import inverse, kernel_basis, rank, rref
from helpers import (brute_det, det, identity, in_row_span, mat_mul, oracle_rank,
                     random_invertible, rnd_fraction)


def F(x):
    return Fraction(x)


def test_rref_simple():
    m = [[F(2), F(4)], [F(1), F(2)]]
    red, pivots = rref(m)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert all(x == 0 for x in red[1])


def test_rank_against_oracle_random():
    rng = random.Random(31)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rnd_fraction(rng, 4, 3) for _ in range(nc)] for _ in range(nr)]
        assert rank(m) == oracle_rank(m)


ENTRIES = st.one_of(st.just(F(0)),
                   st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def matrices_with_keys(draw):
    """Small rational matrices with some zero and repeated rows, plus one
    distinct, scattered, unsorted int key per column."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows.insert(at, [F(0)] * ncols)
    keys = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=ncols,
                         max_size=ncols, unique=True))
    return rows, keys


@settings(derandomize=True, max_examples=400, deadline=None)
@given(matrices_with_keys())
def test_sparse_rank_dense_and_mapped_rows_match_oracle(case):
    rows, keys = case
    expected = oracle_rank(rows)
    assert rank(rows) == expected
    maps = [{k: x for k, x in zip(keys, row) if x} for row in rows]
    copies = [dict(m) for m in maps]
    assert rank(maps) == expected
    assert maps == copies  # the input is not modified
    # explicit zero entries are ignored
    assert rank([dict(zip(keys, row)) for row in rows]) == expected


def test_kernel_vectors_annihilate():
    rng = random.Random(32)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        m = [[rnd_fraction(rng, 3, 2) for _ in range(nc)] for _ in range(nr)]
        basis = kernel_basis(m, nc)
        assert len(basis) == nc - rank(m)
        for v in basis:
            image = [sum(row[j] * v[j] for j in range(nc)) for row in m]
            assert all(x == 0 for x in image)


def test_kernel_of_empty_matrix_is_standard_basis():
    assert kernel_basis([], 3) == [
        [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]


def test_det_against_permutation_expansion():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rnd_fraction(rng, 4, 3) for _ in range(n)] for _ in range(n)]
        assert det(m) == brute_det(m)


def test_det_singular():
    m = [[F(1), F(2)], [F(2), F(4)]]
    assert det(m) == 0


def test_inverse_round_trip():
    rng = random.Random(34)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_invertible(rng, n)
        assert mat_mul(m, inverse(m)) == identity(n)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        inverse([[F(1), F(2)], [F(2), F(4)]])


def test_in_row_span():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert in_row_span(rows, [F(2), F(3), F(5)])
    assert not in_row_span(rows, [F(0), F(0), F(1)])
