import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilsym.linalg import inverse, kernel_basis, rank, relations, rref
from helpers import (brute_det, det, identity, in_row_span, mat_mul, oracle_inverse,
                     oracle_kernel_basis, oracle_rank, oracle_rref,
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


def check_relations(vectors, found):
    """Each relation sums its vectors to zero, names the vector's own index
    with a positive coefficient and otherwise only earlier independent ones,
    and is primitive; returns the number of independent vectors."""
    assert len(found) == len(vectors)
    independent = set()
    for index, rel in enumerate(found):
        if rel is None:
            independent.add(index)
            continue
        assert rel[index] > 0
        assert all(type(c) is int and c for c in rel.values())
        assert set(rel) - {index} <= {i for i in independent if i < index}
        assert math.gcd(*rel.values()) == 1
        total = {}
        for i, c in rel.items():
            items = vectors[i].items() if isinstance(vectors[i], dict) else enumerate(vectors[i])
            for k, x in items:
                total[k] = total.get(k, 0) + c * x
        assert not any(total.values())
    return len(independent)


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
    for vectors in (rows, maps):
        assert check_relations(vectors, list(relations(vectors))) == expected
    assert maps == copies


@st.composite
def square_matrices(draw):
    """Small square rational matrices, singular ones included, and
    invertible ones built from elementary row operations."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return random_invertible(random.Random(draw(st.integers(0, 10 ** 6))), n)
    return draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_matches_dense_oracle(m):
    try:
        expected = oracle_inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        return
    got = inverse(m)
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        inverse([[F(1), F(2)]])


@st.composite
def dense_matrices(draw):
    """Wide, tall and square matrices of ints or Fractions, sparse like the
    differentials, with some rows and columns all zero."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)], ncols


@settings(derandomize=True, max_examples=400, deadline=None)
@given(dense_matrices())
def test_rref_and_kernel_basis_match_full_row_oracle(case):
    rows, ncols = case
    copies = [list(row) for row in rows]
    assert rref(rows) == oracle_rref(rows)
    assert kernel_basis(rows, ncols) == oracle_kernel_basis(rows, ncols)
    assert rows == copies  # the input is not modified
    assert all(x is y for row, copy in zip(rows, copies) for x, y in zip(row, copy))


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
