"""Exact exterior (Grassmann) algebra over the rationals on an ordered basis.

Basis 1-forms are indexed 1..dim.  A monomial x_{i_1}^...^x_{i_k} with
strictly increasing indices (^ is the wedge) is stored as an integer bitmask
with bit i-1 set, so index sets are canonical by construction.  A
Multivector is a validated sparse map from monomial bitmask to a nonzero
Fraction, with degree queries and rendering; the zero element has an empty
map.  Each coefficient is admitted by `linalg.rational`, so a float or a
string is refused.  It has no ring arithmetic: the complex and the
decisions compute on term maps and wrap a Multivector once, around a result.

The text rendering (`1/2*x1^x2 - x3^x4`) is the canonical form used by the
catalog form grammar and the CLI; `signed_sum` writes it and MPoly's text.
"""

from .linalg import rational


def mask_of(indices):
    """Bitmask of a set of distinct 1-based indices."""
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError("basis indices are 1-based, got %r" % (i,))
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError("repeated basis index %d" % i)
        mask |= bit
    return mask


def indices_of(mask):
    """Strictly increasing tuple of 1-based indices in a monomial bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def wedge_sign(a, b):
    """Sign of merging two disjoint monomial masks; 0 if they share an index.

    Counts the inversions between the two increasing index lists instead of
    performing swaps, so it is linear in the number of set bits.
    """
    if a & b:
        return 0
    inv = 0
    rest = a
    while rest:
        low = rest & -rest
        inv += (b & (low - 1)).bit_count()
        rest ^= low
    return -1 if inv & 1 else 1


def signed_sum(terms):
    """The text of a sum of (coefficient, body) pairs, as every rendering in
    the package writes it: `c*body`, the first term with a bare `-`, later
    ones after ` + ` or ` - `.  A unit magnitude is left out, an empty body
    prints the bare magnitude, and no terms print `0`."""
    parts = []
    for c, body in terms:
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append("-" + body if c < 0 else body)
    return " ".join(parts) or "0"


class Multivector:
    """A graded element of the exterior algebra on `dim` 1-forms."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 0:
            raise ValueError("ambient dimension must be >= 0")
        self.dim = dim
        clean = {}
        if terms:
            limit = 1 << dim
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError("monomial %r outside ambient dimension %d"
                                     % (indices_of(mask), dim))
                c = rational(coeff, "a Multivector coefficient")
                if c:
                    clean[mask] = c
        self.terms = clean

    # ---- structure queries ----

    def degrees(self):
        return sorted({m.bit_count() for m in self.terms})

    def is_homogeneous(self, d=None):
        degs = self.degrees()
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs[0] == d

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def monomials(self):
        """Monomial masks in lexicographic order of their index tuples."""
        return sorted(self.terms, key=indices_of)

    # ---- rendering ----

    def render(self, labels=None):
        """Canonical text form: `c*xi^xj` terms in `signed_sum`'s layout,
        ordered lexicographically by index tuple; the empty monomial prints
        as a bare rational."""
        if labels is None:
            labels = ["x%d" % i for i in range(1, self.dim + 1)]
        elif len(labels) != self.dim:
            raise ValueError("need %d labels, got %d" % (self.dim, len(labels)))
        return signed_sum((self.terms[mask],
                           "^".join(labels[i - 1] for i in indices_of(mask)))
                          for mask in self.monomials())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "Multivector(%d, %s)" % (self.dim, self.render())
