"""Sparse multivariate polynomials over exact rationals.

A monomial is the sorted tuple of its variables' 0-based indices, one entry
per factor: t1^2*t3 is (0, 0, 2) and the constant monomial is ().  Terms map
monomials to nonzero Fractions; the zero polynomial has an empty term map,
so identical vanishing is a dictionary emptiness check rather than a
sampling question.

An MPoly is a value, with no ring arithmetic: the Pfaffian expansion and the
catalog's lambda parser build term maps and wrap them once.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby

from .exterior import signed_sum
from .linalg import integer_maps


def _merge(pairs):
    """Sum (monomial, coefficient) pairs into a term map with no zeros."""
    acc = {}
    for key, c in pairs:
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return {key: c for key, c in acc.items() if c}


def _substituted(terms, i, value):
    """The term map with variable i fixed to `value`.  Each key is sorted,
    so the factors t_{i+1} are one contiguous run, found by two bisections
    and cut out.  Int coefficients and an int value give ints."""
    def restricted():
        for key, c in terms.items():
            lo = bisect_left(key, i)
            hi = bisect_right(key, i, lo)
            if lo == hi:
                yield key, c
            elif value:
                yield key[:lo] + key[hi:], c * value ** (hi - lo)

    return _merge(restricted())


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

    def __neg__(self):
        """-p, as `bracket_row` stores a reversed bracket [e_j, e_i]."""
        return MPoly._of(self.nvars, {k: -c for k, c in self.terms.items()})

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

    def __str__(self):
        return signed_sum(
            (self.terms[key], "*".join(_power(i, len(list(run)))
                                       for i, run in groupby(key)))
            for key in sorted(self.terms, key=lambda k: (len(k), k)))

    def __repr__(self):
        return "MPoly(%d, %s)" % (self.nvars, self)


def find_nonvanishing_point(p):
    """Lexicographically least point on {0..d}^nvars where p is nonzero, as
    a list of ints.

    d is the total degree of p.  Works by fixing variables left to right:
    a nonzero polynomial of per-variable degree <= d cannot vanish at all
    of 0..d in its leading variable, so each step keeps a nonzero
    restriction and the search never backtracks.  Rejects the zero
    polynomial, where no such point exists.

    p is scaled once by the lcm of its denominators, which moves none of its
    zeros, so every substitution is on ints.
    """
    if p.is_zero:
        raise ValueError("polynomial is identically zero")
    d = p.total_degree()
    point = []
    (q,), _ = integer_maps((p.terms,))
    for i in range(p.nvars):
        for v in range(d + 1):
            r = _substituted(q, i, v)
            if r:
                point.append(v)
                q = r
                break
        else:  # impossible for nonzero q by the grid bound
            raise AssertionError("grid search failed on a nonzero polynomial")
    return point
