"""Sparse multivariate polynomials over exact rationals.

Terms map exponent tuples (length nvars) to nonzero Fractions; the zero
polynomial has an empty term map, so identical vanishing is a dictionary
emptiness check rather than a sampling question.
"""

from fractions import Fraction


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError("bad exponent vector %r for %d variables"
                                     % (exps, nvars))
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    prev = clean.get(exps)
                    if prev is None:
                        clean[exps] = c
                    else:
                        s = prev + c
                        if s:
                            clean[exps] = s
                        else:
                            del clean[exps]
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars, i):
        """The monomial t_{i+1}; i is a 0-based variable index."""
        if not 0 <= i < nvars:
            raise ValueError("variable index %d out of range" % i)
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # ---- ring structure ----

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch: %d vs %d"
                             % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        out = MPoly(self.nvars)
        out.terms = acc
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = other if isinstance(other, Fraction) else Fraction(other)
            out = MPoly(self.nvars)
            if c:
                out.terms = {e: c * v for e, v in self.terms.items()}
            return out
        self._check(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = acc.get(e)
                if prev is None:
                    acc[e] = c
                else:
                    s = prev + c
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
        out = MPoly(self.nvars)
        out.terms = acc
        return out

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
        return max((sum(e) for e in self.terms), default=-1)

    def evaluate(self, point):
        point = [p if isinstance(p, Fraction) else Fraction(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError("point length %d, expected %d" % (len(point), self.nvars))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def substitute_first(self, value):
        """Fix the first variable to `value`; result has nvars-1 variables."""
        if self.nvars == 0:
            raise ValueError("no variables to substitute")
        value = value if isinstance(value, Fraction) else Fraction(value)
        acc = {}
        for exps, coeff in self.terms.items():
            c = coeff * value ** exps[0] if exps[0] else coeff
            if not c:
                continue
            e = exps[1:]
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        out = MPoly(self.nvars - 1)
        out.terms = acc
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), tuple(-x for x in e))):
            c = self.terms[exps]
            mono = "*".join(
                ("t%d" % (i + 1)) if e == 1 else ("t%d^%d" % (i + 1, e))
                for i, e in enumerate(exps) if e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s*%s" % (mag, mono)
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

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
    for _ in range(p.nvars):
        for v in range(d + 1):
            r = q.substitute_first(v)
            if not r.is_zero:
                point.append(Fraction(v))
                q = r
                break
        else:  # impossible for nonzero q by the grid bound
            raise AssertionError("grid search failed on a nonzero polynomial")
    return point
