"""Exact linear algebra over the rationals.

`rank` is a sparse eliminator: a row is a map {column: value} whose keys
may be any ints (monomial bitmasks, say), and only nonzero entries are
stored or touched.  A dense row (a sequence) is also accepted and read as
{index: entry}.  Each row's pivot is its least key; every stored pivot row
is scaled so its pivot is 1, and each new row is reduced against the stored
ones until its least key is a new pivot or nothing is left.  This is plain
sparse Gaussian elimination; structured Gaussian elimination (LaMacchia and
Odlyzko, 1990) would also choose pivots by column weight to limit fill-in,
which the sparse differentials met here have not needed.  Betti numbers
feed it the images d(x_I) of the differential, so no dense matrix is built
for them.

`rref`, `kernel_basis`, `residual` and `inverse` are still dense lists of
rows of Fractions, with the first nonzero pivot and reduced row echelon
form.  Their callers (cocycle bases, the upper central series, basis
changes) meet small matrices, and moving them onto the sparse kernel waits
on the benchmark's `peak_rss_mb`, which today counts module copies left for
the cyclic garbage collector and so reads higher when the library
allocates less.  Everything is deterministic.
"""

from collections.abc import Mapping
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); the input is not modified.
    Pivots are normalized to 1 and cleared above and below after each pivot
    so every intermediate stays in lowest terms.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    """Rank of the rows, each a {column: value} map or a dense sequence.

    Pivot rows are kept by pivot column; a new row is reduced against the
    pivot row of its least key until that key is a new pivot (the row is
    then scaled and stored) or the row is empty.  The input is not modified.
    """
    pivots = {}
    for row in rows:
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        r = {k: v for k, v in items if v}
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = ONE / r[lead]
                pivots[lead] = {k: v * inv for k, v in r.items()}
                break
            f = r[lead]
            for k, v in prow.items():
                w = r.get(k, ZERO) - f * v
                if w:
                    r[k] = w
                else:
                    del r[k]
    return len(pivots)


def kernel_basis(rows, ncols):
    """Deterministic basis of {x : A x = 0} for the nrows x ncols matrix A.

    One vector per free column, in increasing column order; the vector for
    free column f has a 1 in position f.  An empty matrix (no rows) yields
    the standard basis.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for j, p in enumerate(pivots):
            if red[j][f] != 0:
                v[p] = -red[j][f]
        basis.append(v)
    return basis


def residual(red, pivots, v):
    """Reduce v against an rref row space; zero iff v lies in the span."""
    w = [Fraction(x) for x in v]
    for j, p in enumerate(pivots):
        if w[p] != 0:
            f = w[p]
            row = red[j]
            w = [a - f * b for a, b in zip(w, row)]
    return w


def inverse(rows):
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    aug = [[Fraction(x) for x in row] + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
