"""Sparse multivariate polynomials over exact rationals.

A monomial is the sorted tuple of its variables' 0-based indices, one entry
per factor: t1^2*t3 is (0, 0, 2) and the constant monomial is ().  Terms map
monomials to nonzero Fractions; the zero polynomial has an empty term map,
so identical vanishing is a dictionary emptiness check rather than a
sampling question.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, groupby

from .exterior import signed_sum


def _merge(pairs):
    """Sum (monomial, coefficient) pairs into a term map with no zeros."""
    acc = {}
    for key, c in pairs:
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return {key: c for key, c in acc.items() if c}


def _power(i, e):
    return "t%d" % (i + 1) if e == 1 else "t%d^%d" % (i + 1, e)


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        terms = terms or {}
        for key in terms:
            if not (isinstance(key, tuple)
                    and all(isinstance(i, int) and 0 <= i < nvars for i in key)
                    and list(key) == sorted(key)):
                raise ValueError("bad monomial %r for %d variables: want a "
                                 "sorted tuple of variable indices" % (key, nvars))
        self.terms = _merge(
            (key, c if isinstance(c, Fraction) else Fraction(c))
            for key, c in terms.items())

    @classmethod
    def _of(cls, nvars, terms):
        """Wrap a term map that is already canonical, unchecked."""
        out = cls.__new__(cls)
        out.nvars, out.terms = nvars, terms
        return out

    # ---- constructors ----

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(): Fraction(value)})

    # ---- ring structure ----

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch: %d vs %d"
                             % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        self._check(other)
        return MPoly._of(self.nvars,
                         _merge(chain(self.terms.items(), other.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = other if isinstance(other, Fraction) else Fraction(other)
            if not c:
                return MPoly(self.nvars)
            return MPoly._of(self.nvars, {k: c * v for k, v in self.terms.items()})
        self._check(other)
        return MPoly._of(self.nvars, _merge(
            (tuple(sorted(k1 + k2)), c1 * c2)
            for k1, c1 in self.terms.items() for k2, c2 in other.terms.items()))

    __rmul__ = __mul__

    # ---- queries ----

    @property
    def is_zero(self):
        """Identically zero, decided exactly from the canonical term map."""
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree(self):
        """Max term degree; -1 for the zero polynomial."""
        return max(map(len, self.terms), default=-1)

    def evaluate(self, point):
        point = [p if isinstance(p, Fraction) else Fraction(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError("point length %d, expected %d" % (len(point), self.nvars))
        total = Fraction(0)
        for key, coeff in self.terms.items():
            for i in key:
                coeff *= point[i]
            total += coeff
        return total

    def substitute(self, i, value):
        """Fix variable i (0-based) to `value`; the result keeps nvars.

        Each key is sorted, so the factors t_{i+1} are one contiguous run,
        found by two bisections and cut out."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index %d out of range" % i)
        value = value if isinstance(value, Fraction) else Fraction(value)

        def restricted():
            for key, c in self.terms.items():
                lo = bisect_left(key, i)
                hi = bisect_right(key, i, lo)
                if lo == hi:
                    yield key, c
                elif value:
                    yield key[:lo] + key[hi:], c * value ** (hi - lo)

        return MPoly._of(self.nvars, _merge(restricted()))

    def __str__(self):
        return signed_sum(
            (self.terms[key], "*".join(_power(i, len(list(run)))
                                       for i, run in groupby(key)))
            for key in sorted(self.terms, key=lambda k: (len(k), k)))

    def __repr__(self):
        return "MPoly(%d, %s)" % (self.nvars, self)


def find_nonvanishing_point(p):
    """Lexicographically least point on {0..d}^nvars where p is nonzero.

    d is the total degree of p.  Works by fixing variables left to right:
    a nonzero polynomial of per-variable degree <= d cannot vanish at all
    of 0..d in its leading variable, so each step keeps a nonzero
    restriction and the search never backtracks.  Rejects the zero
    polynomial, where no such point exists.
    """
    if p.is_zero:
        raise ValueError("polynomial is identically zero")
    d = p.total_degree()
    point = []
    q = p
    for i in range(p.nvars):
        for v in range(d + 1):
            r = q.substitute(i, v)
            if not r.is_zero:
                point.append(Fraction(v))
                q = r
                break
        else:  # impossible for nonzero q by the grid bound
            raise AssertionError("grid search failed on a nonzero polynomial")
    return point
