"""Dense exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Everything is deterministic
(first nonzero pivot, reduced row echelon form) and sized for the matrices
this package actually meets, so plain dense elimination is enough.
"""

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
    return len(rref(rows)[1])


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


def in_row_span(rows, v):
    red, pivots = rref(rows)
    return all(x == 0 for x in residual(red, pivots, v))


def det(rows):
    """Exact determinant by fraction elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    m = [[Fraction(x) for x in row] for row in rows]
    out = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return ZERO
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        pivot = m[c][c]
        out *= pivot
        inv = ONE / pivot
        row_c = m[c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], row_c)]
    return out


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
