"""Exact linear algebra over the rationals.

`relations` is the package's eliminator.  It takes vectors in order, each a
map {key: value} whose keys may be any ints (monomial bitmasks, say) or a
dense sequence read as {index: entry}, and tells for each one whether it is
independent of the earlier ones or, if not, an integer relation that proves
it.  The arithmetic is fraction-free, in the style of Bareiss (1968), on
Python ints: each vector is scaled to integers by the lcm of its
denominators (`integer_maps`, the package's one integer scaling), a row is
reduced against a stored pivot row as a*row - b*pivot with a and b first
divided by their gcd, and stored pivot rows are kept primitive (divided by
the gcd of their entries and of their relation, with a positive pivot), so
no Fraction is made in the loop and entries stay short.
A row's pivot is its least key, and only nonzero entries are stored or
touched.  This is plain sparse Gaussian elimination; structured Gaussian
elimination (LaMacchia and Odlyzko, 1990) would also choose pivots by
column weight to limit fill-in, which the sparse differentials met here
have not needed.

`rank` counts the independent vectors.  Betti numbers run on `rank`, and
the upper central series on `relations`, which keeps the independent
vectors.

`rref` and `kernel_basis` work on dense lists of rows, with the first
nonzero pivot and reduced row echelon form; cocycle bases are their only
caller (see `cecomplex.cocycle_basis` for why they are not on
`relations`), and pass the integer matrix of scale * d.  `rref` converts
each entry to a Fraction, which costs least on ints, and its reduced rows
are Fractions.  At each pivot `rref` collects the pivot row's nonzero
columns, all at or after the pivot, scales only those, and subtracts the
row, on those columns and in place, from each row with a nonzero entry in
the pivot column, so a sparse differential costs its nonzeros and not its
width.
Everything is deterministic.

`rational` is the package's one rule for rational input: it refuses a
float, a Decimal or a string rather than turn it into a nearby Fraction.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(value, what):
    """value as a Fraction if it is a numbers.Rational (an int or a
    Fraction); anything else, a float or a string say, raises ValueError
    naming `what`."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise ValueError("%s must be rational, got %r" % (what, value))


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); the input is not modified.
    Pivots are normalized to 1 and cleared above and below after each pivot
    so every intermediate stays in lowest terms.  Only the pivot row's
    nonzero columns, all at or after the pivot, are scaled and subtracted,
    in place, from the rows with a nonzero entry in the pivot column.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row_r = m[r]
        support = [j for j in range(c, ncols) if row_r[j]]
        inv = ONE / row_r[c]
        for j in support:
            row_r[j] *= inv
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for j in support:
                    row[j] -= f * row_r[j]
        pivots.append(c)
        r += 1
    return m, pivots


def integer_maps(maps):
    """The nonzero entries of rational maps {key: value}, each times the lcm
    of all their denominators, as a list of {key: int} maps in order, and
    that lcm.  Maps of ints, such as the complex's images, are copied as
    they are, with lcm 1.  This is the package's one integer scaling."""
    maps = [{k: v for k, v in m.items() if v} for m in maps]
    if all(type(v) is int for m in maps for v in m.values()):
        return maps, 1
    scale = lcm(*(v.denominator for m in maps for v in m.values()))
    return [{k: v.numerator * (scale // v.denominator) for k, v in m.items()}
            for m in maps], scale


def _subtract(acc, a, b, other):
    """acc <- a*acc - b*other in place, dropping entries that become 0."""
    if a != 1:
        for k in acc:
            acc[k] *= a
    for k, v in other.items():
        w = acc.get(k, 0) - b * v
        if w:
            acc[k] = w
        else:
            del acc[k]


def _divide(vec, g):
    """vec <- vec / g in place (an exact division)."""
    if g != 1:
        for k in vec:
            vec[k] //= g


def relations(vectors):
    """For each vector in order: None when it is independent of the earlier
    ones, else an integer relation {index: coefficient} with
    sum coefficient * vectors[index] = 0.

    A relation names the vector's own index with a positive coefficient and
    otherwise only earlier independent vectors; it is primitive (its
    coefficients have gcd 1).  Vectors are {key: rational} maps with any int
    keys, or dense sequences; the input is not modified.
    """
    pivots = {}  # least key -> (primitive row, its relation), lead > 0
    for index, vector in enumerate(vectors):
        if not isinstance(vector, Mapping):
            vector = dict(enumerate(vector))
        (row,), scale = integer_maps((vector,))
        rel = {index: scale}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values(), *rel.values())
                g = -g if row[lead] < 0 else g
                _divide(row, g)
                _divide(rel, g)
                pivots[lead] = (row, rel)
                break
            prow, prel = pivot
            a, b = prow[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            _subtract(row, a, b, prow)
            _subtract(rel, a, b, prel)
        if row:
            yield None
        else:
            g = gcd(*rel.values())
            _divide(rel, -g if rel[index] < 0 else g)
            yield rel


def rank(rows):
    """Rank of the rows, each a {column: value} map or a dense sequence."""
    return sum(1 for rel in relations(rows) if rel is None)


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

