"""The exterior-algebra complex of a Lie algebra: differential, cocycles,
coboundaries, Betti numbers.

The differential is fixed on dual generators as dx_k = -sum_{i<j} c_ij^k
x_i x_j and extended as a graded derivation; d^2 = 0 is then exactly the
Jacobi identity.  The coefficient of x_i x_j x_l in d(dx_k) is the k-th
component of the Jacobiator of (e_i, e_j, e_l), so d_squared_violation reads
the first violating triple off the 3-forms d(dx_k); this is the package's
only Jacobi check.

Betti numbers come from ranks of d, computed by sparse elimination
(`linalg.rank`) of the images d(x_I) of the degree-p monomials, each a
{monomial mask: coefficient} map; rank does not change under transpose, so
no dense matrix is built for them.  Cocycle bases still go through the
dense `differential_matrix`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .exterior import Multivector, mask_of, indices_of, wedge_sign
from .linalg import kernel_basis, rank


class CEComplex:
    """Differential data for one algebra; immutable after construction."""

    __slots__ = ("algebra", "generator_differentials")

    def __init__(self, algebra, generator_differentials):
        self.algebra = algebra
        self.generator_differentials = tuple(generator_differentials)

    @property
    def dim(self):
        return self.algebra.dim

    def differential(self, f):
        """Graded-derivation extension of the generator differentials.

        On a monomial x_{i_1}..x_{i_p} this is
        sum_t (-1)^(t-1) dx_{i_t} ^ (monomial with i_t removed).
        """
        if f.dim != self.dim:
            raise ValueError("ambient dimension mismatch: %d vs %d"
                             % (f.dim, self.dim))
        acc = {}
        diffs = self.generator_differentials
        for mask, coeff in f.terms.items():
            idxs = indices_of(mask)
            for t, i in enumerate(idxs):
                d_i = diffs[i - 1]
                if not d_i.terms:
                    continue
                rest = mask ^ (1 << (i - 1))
                c0 = coeff if t % 2 == 0 else -coeff
                for dmask, dcoeff in d_i.terms.items():
                    s = wedge_sign(dmask, rest)
                    if s == 0:
                        continue
                    m = dmask | rest
                    c = c0 * dcoeff if s > 0 else -c0 * dcoeff
                    prev = acc.get(m)
                    if prev is None:
                        acc[m] = c
                    else:
                        v = prev + c
                        if v:
                            acc[m] = v
                        else:
                            del acc[m]
        out = Multivector(self.dim)
        out.terms = acc
        return out


def build_complex(g):
    """Generator differentials dx_k = -sum_{i<j} c_ij^k x_i x_j."""
    g._require_instantiated("the differential")
    n = g.dim
    diffs = [{} for _ in range(n)]
    for (i, j), row in g.brackets.items():
        mask = mask_of((i, j))
        for k, c in row.items():
            diffs[k - 1][mask] = diffs[k - 1].get(mask, Fraction(0)) - c
    return CEComplex(g, [Multivector(n, d) for d in diffs])


def d_squared_violation(c):
    """Lex-least index triple of a monomial in some d(dx_k), else None."""
    return min((indices_of(m) for dxk in c.generator_differentials
                for m in c.differential(dxk).terms), default=None)


def d_squared_is_zero(c):
    """Equivalent to the Jacobi identity for the underlying algebra."""
    return d_squared_violation(c) is None


def degree_monomials(n, d):
    """Degree-d monomial masks over n generators in lexicographic order."""
    return [mask_of(ix) for ix in combinations(range(1, n + 1), d)]


def differential_matrix(c, degree):
    """Matrix of d: degree -> degree+1 over lex-ordered monomial bases.

    Rows are indexed by codomain monomials, columns by domain monomials.
    """
    n = c.dim
    domain = degree_monomials(n, degree)
    codomain = degree_monomials(n, degree + 1) if degree < n else []
    row_index = {m: r for r, m in enumerate(codomain)}
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]
    for col, mask in enumerate(domain):
        image = c.differential(Multivector(n, {mask: Fraction(1)}))
        for m, coeff in image.terms.items():
            matrix[row_index[m]][col] = coeff
    return matrix, domain, codomain


def cocycle_basis(c, degree):
    """Deterministic basis of the closed forms of the given degree.

    Kernel of the lex-ordered differential matrix, one basis vector per free
    column of its reduced row echelon form.
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


@dataclass(frozen=True)
class CochainBasisReport:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int

    @property
    def betti(self):
        return self.dim_cocycles - self.dim_coboundaries


def betti_numbers(c):
    """One CochainBasisReport per degree 0..dim, from exact ranks.

    The rank of d in degree p is the sparse rank of the images d(x_I) of
    the degree-p monomials x_I, each given as its {mask: coefficient} map.
    Rejects complexes whose differential does not square to zero (i.e.
    algebras failing Jacobi), where the quotient is meaningless.
    """
    if not d_squared_is_zero(c):
        raise ValueError("d^2 != 0: %r does not define a complex"
                         % (c.algebra.name,))
    n = c.dim
    ranks = [rank(c.differential(Multivector(n, {m: 1})).terms
                  for m in degree_monomials(n, degree))
             for degree in range(n + 1)]
    reports = []
    for degree in range(n + 1):
        cochains = comb(n, degree)
        cocycles = cochains - ranks[degree]
        coboundaries = ranks[degree - 1] if degree > 0 else 0
        reports.append(CochainBasisReport(degree, cochains, cocycles, coboundaries))
    return reports
