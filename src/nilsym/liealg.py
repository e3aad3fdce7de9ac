"""Lie algebras over the rationals given by sparse structure constants.

Brackets are stored only for i < j (1-based); [e_j, e_i] = -[e_i, e_j] is
synthesized.  Coefficients are Fractions only: a compact nilmanifold exists
for rational structure constants (Malcev 1949), so every analysis needs
them.  `LieAlgebra` admits each coefficient by `linalg.rational`, so a
float, a string or a polynomial is refused.  A one-parameter family lives
only in `catalog`: a `CatalogEntry` holds its lambda-coefficients until
`CatalogEntry.algebra` binds them.

This module owns the input contract on structure constants: `LieAlgebra`
holds the only check of a dimension, and `bracket_key` and `bracket_row`
are the only checks of a bracket, which the catalog parser calls too,
adding only the line and column.  A dimension is at most MAX_DIM: a label
tuple, or the 2^dim cochains of the complex, would otherwise grow without
bound.
"""

from collections import namedtuple

from .cecomplex import build_complex, d_squared_violation
from .linalg import rational, relations

MAX_DIM = 64


def bracket_key(i, j, dim, table):
    """(i, j, sign) with i < j for the bracket [e_i, e_j] written as given:
    [e_j, e_i] is stored as -[e_i, e_j].  Raises ValueError on [e_i, e_i],
    on an index outside 1..dim and on a pair already in `table`."""
    if i == j:
        raise ValueError("bracket [%d,%d] is identically zero" % (i, j))
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    if not 1 <= i < j <= dim:
        raise ValueError("bracket indices [%d,%d] outside 1..%d" % (i, j, dim))
    if (i, j) in table:
        raise ValueError("duplicate bracket [%d,%d]" % (i, j))
    return i, j, sign


def bracket_row(combo, sign, dim):
    """The stored row {k: coefficient} of sign * sum combo[k] e_k, zeros
    dropped.  Raises ValueError on a target outside 1..dim."""
    row = {}
    for k, c in combo.items():
        if not 1 <= k <= dim:
            raise ValueError("bracket target e%d outside 1..%d" % (k, dim))
        if c:
            row[k] = -c if sign < 0 else c
    return row


class LieAlgebra:
    """A Lie algebra presented by rational structure constants.

    Structural equality compares dimension and brackets only; names and
    labels are presentation data.
    """

    def __init__(self, name, dim, brackets=None, dual_labels=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if dim > MAX_DIM:  # checked before any label or cochain is built
            raise ValueError("dimension %d is over the limit of %d" % (dim, MAX_DIM))
        self.name = name
        self.dim = dim
        if dual_labels is None:
            dual_labels = tuple("x%d" % i for i in range(1, dim + 1))
        if len(dual_labels) != dim:
            raise ValueError("label count must equal dim")
        self.dual_labels = tuple(dual_labels)
        table = {}
        for (i, j), combo in (brackets or {}).items():
            combo = {k: rational(c, "the e%d coefficient of [%d,%d]" % (k, i, j))
                     for k, c in combo.items()}
            i, j, sign = bracket_key(i, j, dim, table)
            row = bracket_row(combo, sign, dim)
            if row:
                table[(i, j)] = row
        self.brackets = table
        self._complex = None  # set by cecomplex.build_complex on first use

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse {k: Fraction} map."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.brackets == other.brackets

    def __repr__(self):
        return "LieAlgebra(%r, dim=%d, %d brackets)" % (
            self.name, self.dim, len(self.brackets))


class UcsProfile(namedtuple("UcsProfile", "dims algebra_dim")):
    """Dimensions of the strictly increasing upper central series."""

    __slots__ = ()

    @property
    def is_nilpotent(self):
        return bool(self.dims) and self.dims[-1] == self.algebra_dim


def jacobi_violation(g):
    """First triple (i,j,k), i<j<k, violating the Jacobi identity, else None.

    Read off d(dx_l) for every l: the coefficient of x_i x_j x_k in d(dx_l)
    is the l-th component of the Jacobiator of (e_i, e_j, e_k), so the
    lex-least monomial over all l is the lex-least violating triple.  This
    is the package's one Jacobi query; Jacobi holds iff it returns None.
    """
    return d_squared_violation(build_complex(g))


def upper_central_series(g):
    """Upper central series dims, by ranks of annihilators.

    C_0 = 0 and C_{i+1} = {x : [x, e_j] in C_i for all j}.  The annihilator
    Ann(C_0) is spanned by all coordinate functionals, and x lies in C_{i+1}
    exactly when phi([x, e_j]) = 0 for every phi in Ann(C_i) and every j.
    As d phi(e_i, e_j) = -phi([e_i, e_j]), Ann(C_{i+1}) is spanned by the
    interior products iota_{e_j} d phi, and dim C_{i+1} = n - their rank;
    the independent ones span the next step.  Each phi is a 1-form term map
    {mask: value} and d phi is read off the complex as `scaled_d(phi)`; a
    common scale changes no span, so every functional is an integer map
    and no kernel, residual or bracket table is built.  Stops when the
    series stabilizes; nilpotent iff it reaches dim.
    """
    n = g.dim
    c = build_complex(g)
    spanning = [{1 << k: 1} for k in range(n)]  # Ann(C_0)
    dims = []
    while True:
        psis = []
        for phi in spanning:
            # iota_{e_i} (v x_i ^ x_j) = v x_j and iota_{e_j} (v x_i ^ x_j) = -v x_i
            iotas = {}
            for m, v in c.scaled_d(phi).items():
                low = m & -m
                iotas.setdefault(low, {})[m ^ low] = v
                iotas.setdefault(m ^ low, {})[low] = -v
            psis += [iotas[j] for j in sorted(iotas)]
        spanning = [psi for psi, rel in zip(psis, relations(psis)) if rel is None]
        new_dim = n - len(spanning)
        if dims and new_dim == dims[-1]:
            break
        dims.append(new_dim)
        if new_dim == 0 or new_dim == n:
            break
    return UcsProfile(tuple(dims), n)


def direct_product(g, h):
    """Block-diagonal product; h's indices are shifted past g's.

    When h is one-dimensional its dual generator is labeled y; otherwise
    the second factor's duals are labeled y1..y_dim(h).  A product of
    dimension above MAX_DIM raises ValueError, as every algebra does; g x a
    reaches it only from a 64-dimensional g, and then only through
    `verify-form --times-a` or, in `report`, a claimed form that names y.
    """
    dim = g.dim + h.dim
    brackets = {key: dict(row) for key, row in g.brackets.items()}
    for (i, j), row in h.brackets.items():
        brackets[(i + g.dim, j + g.dim)] = {k + g.dim: c for k, c in row.items()}
    h_duals = ("y",) if h.dim == 1 else tuple(
        "y%d" % i for i in range(1, h.dim + 1))
    return LieAlgebra("%s x %s" % (g.name, h.name), dim, brackets,
                      dual_labels=g.dual_labels + h_duals)


def times_line(g):
    """g x a, a the one-dimensional abelian algebra, named and labeled as
    `direct_product` names and labels it: "g x abelian:1", with y last."""
    return direct_product(g, LieAlgebra("abelian:1", 1))

