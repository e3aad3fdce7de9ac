"""Catalog text format, bundled generators, and form expressions.

The flat file format (one entry per algebra, `#` comments, blank lines
ignored):

    algebra <name>
    dim <1..64>
    param lambda exclude {<rational>, ...}    # optional
    bracket [i,j] = <coef>*e<k> (+|-) <coef>*e<k> ...
    form symplectic "<expr>"                  # optional, repeatable
    form contact "<expr>"                     # optional, repeatable
    end

Coefficients are rationals (`p`, `p/q`), `lambda` monomials, or
parenthesized lambda-polynomials like `(2*lambda-1)`, held as one-variable
MPolys; one whose lambda-terms cancel is held as the constant it leaves.
An entry with such coefficients is a lambda-family: `CatalogEntry.algebra`
binds it, and a `LieAlgebra` holds rational constants only.
The total power of `lambda` in one monomial (`lambda^40*lambda^30` counts
70) is at most MAX_LAMBDA_POWER; a higher power is a CatalogError, raised
before any polynomial is built.  A number longer than Python converts to
an int (sys.get_int_max_str_digits(), 4300 digits by default) is a
CatalogError with its line.  Form expressions use the grammar
`term ((+|-) term)*` with `term := [rational "*"] gen ("^" gen)*` and
`gen := x<int> | y`.

Brackets are checked by `liealg`'s helpers, the ones `LieAlgebra` runs,
so both paths give the same message; the parser only adds the line, and
for a fault on the right-hand side also its column.  The dim line is read
as any positive integer; `CatalogEntry.algebra` rejects one above
`liealg.MAX_DIM`, so `report` lists that entry under `errors` and goes on.
"""

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .exterior import Multivector, wedge_sign
from .liealg import MAX_DIM, LieAlgebra, bracket_key, bracket_row
from .mpoly import MPoly


class CatalogError(ValueError):
    """Parse or validation failure, carrying a position when known."""

    def __init__(self, message, line=None, column=None):
        self.body = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = "line %d" % line
            if column is not None:
                where += ", column %d" % column
            where += ": "
        super().__init__(where + message)


MAX_LAMBDA_POWER = 64

_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_BRACKET_LINE = re.compile(r"^bracket\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_BRACKET_TERM = re.compile(r"^(?:(?P<coef>.*)\*)?e(?P<k>\d+)$")
_FORM_LINE = re.compile(r'^form\s+(symplectic|contact)\s+"([^"]*)"\s*$')
_PARAM_LINE = re.compile(r"^param\s+lambda(?:\s+exclude\s*\{([^}]*)\})?\s*$")
_LAMBDA_POWER = re.compile(r"^lambda\^([0-9]+)$")
_GEN = re.compile(r"^(?:x(\d+)|y)$")
_WS = re.compile(r"\s+")


def _int(text, line=None):
    """int() of an integer from catalog text, raising a CatalogError where
    int() raises: Python converts at most sys.get_int_max_str_digits()
    digits (4300 by default), and this limit is not raised here."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        limit = sys.get_int_max_str_digits()
        if limit and digits > limit:
            raise CatalogError("integer of %d digits is over the limit of %d"
                               % (digits, limit), line) from None
        raise CatalogError("bad integer %r" % text, line) from None


def _parse_rational(text, line=None):
    s = text.strip()
    if not _RATIONAL.match(s):
        raise CatalogError("expected a rational, got %r" % s, line)
    if "/" in s:
        num, den = s.split("/")
        if _int(den, line) == 0:
            raise CatalogError("zero denominator in %r" % s, line)
        return Fraction(_int(num, line), _int(den, line))
    return Fraction(_int(s, line))


def _signed_terms(s, line=None):
    """Split a sum on top-level + and -, yielding (sign, term) pairs."""
    terms = []
    sign = 1
    buf = []
    depth = 0
    seen_sign = False
    for ch in s:
        if ch == "(":
            depth += 1
            buf.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CatalogError("unbalanced ')'", line)
            buf.append(ch)
        elif ch in "+-" and depth == 0:
            tok = "".join(buf).strip()
            if tok:
                terms.append((sign, tok))
            elif terms or seen_sign:
                raise CatalogError("consecutive signs in %r" % s, line)
            sign = 1 if ch == "+" else -1
            seen_sign = True
            buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise CatalogError("unbalanced '('", line)
    tok = "".join(buf).strip()
    if not tok:
        raise CatalogError("dangling sign in %r" % s, line)
    terms.append((sign, tok))
    return terms


def _parse_simple_coeff(s, param, line, sign=1):
    """A product of rational and lambda factors, e.g. `2*lambda`, as
    (power of lambda, sign * rational)."""
    coeff = Fraction(sign)
    power = 0
    for factor in s.split("*"):
        factor = factor.strip()
        if not factor:
            raise CatalogError("empty factor in coefficient %r" % s, line)
        if factor == "lambda":
            power += 1
        elif factor.startswith("lambda^"):
            m = _LAMBDA_POWER.match(factor)
            exp = m.group(1).lstrip("0") if m else ""
            if not exp:
                raise CatalogError("bad lambda power %r" % factor, line)
            # More digits than the limit means over it; int() of a huge
            # digit string is slow or refused outright.
            too_long = len(exp) > len(str(MAX_LAMBDA_POWER))
            power += MAX_LAMBDA_POWER + 1 if too_long else int(exp)
        else:
            coeff *= _parse_rational(factor, line)
        if power > MAX_LAMBDA_POWER:
            raise CatalogError("lambda power in %r exceeds %d"
                               % (s, MAX_LAMBDA_POWER), line)
    if power and param is None:
        raise CatalogError("'lambda' used without a param declaration", line)
    return power, coeff


def _lambda_poly(powers):
    """The coefficient of a {power of lambda: rational} map, which it
    consumes: an MPoly in lambda while a power above 0 keeps a nonzero
    coefficient, else the constant Fraction."""
    constant = powers.pop(0, Fraction(0))
    if not any(powers.values()):
        return constant
    powers[0] = constant
    return MPoly(1, {(0,) * p: c for p, c in powers.items()})


def _parse_bracket_rhs(text, param, line, sign):
    """{k: coefficient} of `sign` times a bracket's right-hand side, the
    terms of each target summed by power of lambda, unchecked."""
    combo = {}
    for term_sign, term in _signed_terms(text, line):
        m = _BRACKET_TERM.match(_WS.sub("", term))
        if not m:
            raise CatalogError("bad bracket term %r" % term, line)
        k = _int(m.group("k"), line)
        coef = m.group("coef")
        sign_k = sign * term_sign
        if coef is None:
            terms = ((0, Fraction(sign_k)),)
        elif coef.startswith("(") and coef.endswith(")"):
            terms = [_parse_simple_coeff(t, param, line, sign_k * s)
                     for s, t in _signed_terms(coef[1:-1], line)]
        else:
            terms = (_parse_simple_coeff(coef, param, line, sign_k),)
        powers = combo.setdefault(k, {})
        for p, c in terms:
            powers[p] = powers[p] + c if p in powers else c
    return {k: _lambda_poly(powers) for k, powers in combo.items()}


class CatalogEntry(namedtuple("CatalogEntry",
                              "name dim brackets param param_exclusions claimed_forms",
                              defaults=(None, (), ()))):
    """One parsed algebra definition plus any claimed forms."""

    __slots__ = ()

    def algebra(self, bindings=None):
        """The LieAlgebra of this entry, with `bindings` {name: rational}
        substituted for the parameter.  Raises ValueError on a name other
        than the entry's parameter, on an excluded value, and on a
        coefficient that depends on the parameter when it is unbound."""
        bindings = {name: Fraction(v) for name, v in (bindings or {}).items()}
        for name in bindings:
            if name != self.param:
                raise ValueError("unknown parameter %r" % name)
        value = bindings.get(self.param)
        if value is not None and value in self.param_exclusions:
            raise ValueError("parameter %s = %s is excluded for %s"
                             % (self.param, value, self.name))
        brackets = self.brackets
        if any(isinstance(c, MPoly) for row in brackets.values()
               for c in row.values()):
            if value is None:
                raise ValueError("parameter %r is unbound" % self.param)
            brackets = {key: {k: c.evaluate([value]) if isinstance(c, MPoly) else c
                              for k, c in row.items()}
                        for key, row in brackets.items()}
        return LieAlgebra(self.name, self.dim, brackets)


def parse_catalog(text):
    """Parse catalog text into a list of CatalogEntry, validating as it goes."""
    entries = []
    names = set()
    state = None  # None | dict being built
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if state is None:
            if s.startswith("algebra"):
                name = s[len("algebra"):].strip()
                if not name:
                    raise CatalogError("algebra needs a name", lineno)
                if name in names:
                    raise CatalogError("duplicate algebra %r" % name, lineno)
                state = {"name": name, "dim": None, "brackets": {},
                         "param": None, "exclude": (), "forms": [],
                         "line": lineno}
            else:
                raise CatalogError("expected 'algebra <name>', got %r" % s, lineno)
            continue
        if s == "end":
            if state["dim"] is None:
                raise CatalogError("entry %r has no dim line" % state["name"], lineno)
            entry = CatalogEntry(state["name"], state["dim"], state["brackets"],
                                 state["param"], state["exclude"],
                                 tuple(state["forms"]))
            entries.append(entry)
            names.add(entry.name)
            state = None
            continue
        if s.startswith("dim"):
            if state["dim"] is not None:
                raise CatalogError("duplicate dim line", lineno)
            body = s[len("dim"):].strip()
            if not body.isdigit() or _int(body, lineno) < 1:
                raise CatalogError("dim must be a positive integer, got %r" % body,
                                   lineno)
            state["dim"] = _int(body, lineno)
            continue
        if s.startswith("param"):
            m = _PARAM_LINE.match(s)
            if not m:
                raise CatalogError("bad param line %r (only 'lambda' is supported)"
                                   % s, lineno)
            if state["param"] is not None:
                raise CatalogError("duplicate param line", lineno)
            state["param"] = "lambda"
            if m.group(1):
                values = [_parse_rational(x, lineno)
                          for x in m.group(1).split(",")]
                state["exclude"] = tuple(sorted(set(values)))
            continue
        if s.startswith("bracket"):
            if state["dim"] is None:
                raise CatalogError("bracket before dim line", lineno)
            m = _BRACKET_LINE.match(s)
            if not m:
                raise CatalogError("bad bracket line %r" % s, lineno)
            i, j = _int(m.group(1), lineno), _int(m.group(2), lineno)
            try:
                i, j, sign = bracket_key(i, j, state["dim"], state["brackets"])
            except ValueError as exc:
                raise CatalogError(str(exc), lineno) from None
            rhs = m.group(3)
            try:
                row = bracket_row(_parse_bracket_rhs(rhs, state["param"], lineno,
                                                     sign), 1, state["dim"])
            except ValueError as exc:
                raise CatalogError(getattr(exc, "body", str(exc)), lineno,
                                   raw.find(rhs) + 1) from None
            if row:
                state["brackets"][(i, j)] = row
            continue
        if s.startswith("form"):
            m = _FORM_LINE.match(s)
            if not m:
                raise CatalogError("bad form line %r" % s, lineno)
            state["forms"].append((m.group(1), m.group(2).strip()))
            continue
        raise CatalogError("unrecognized line %r" % s, lineno)
    if state is not None:
        raise CatalogError("entry %r not closed by 'end'" % state["name"],
                           state["line"])
    return entries


def parse_catalog_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read())


# ---- bundled generators ---------------------------------------------------


def builtin(name):
    """Construct a bundled algebra: abelian:N, heisenberg:N (odd), g13457C,
    with N at most MAX_DIM, checked before the brackets of a huge N are
    built.

    Only algebras whose structure constants are fully pinned down ship
    here; everything else must come through a catalog file.
    """
    if name == "g13457C":
        brackets = {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1},
                    (1, 6): {7: 1}, (2, 5): {7: 1}, (3, 4): {7: -1}}
        return LieAlgebra("g13457C", 7, brackets)
    kind, _, arg = name.partition(":")
    if kind in ("abelian", "heisenberg"):
        if not arg.isdigit():
            raise ValueError("builtin %r needs a size, e.g. %s:5" % (name, kind))
        n = int(arg)
        if n > MAX_DIM:
            raise ValueError("builtin %s size must be <= %d, got %d"
                             % (kind, MAX_DIM, n))
        if kind == "abelian":
            if n < 1:
                raise ValueError("abelian size must be >= 1")
            return LieAlgebra("abelian:%d" % n, n)
        if n < 3 or n % 2 == 0:
            raise ValueError("heisenberg size must be odd and >= 3, got %d" % n)
        brackets = {(2 * i, 2 * i + 1): {1: Fraction(1)}
                    for i in range(1, (n - 1) // 2 + 1)}
        return LieAlgebra("heisenberg:%d" % n, n, brackets)
    raise ValueError("unknown builtin %r (expected abelian:N, heisenberg:N "
                     "or g13457C)" % name)


# ---- form expressions -------------------------------------------------------


def parse_form(expr, dim, has_y=False):
    """Parse a form expression over x1..x<dim> (plus y at dim+1 if has_y)."""
    ambient = dim + 1 if has_y else dim
    s = expr.strip()
    if not s:
        raise CatalogError("empty form expression")
    terms = {}
    for sign, term in _signed_terms(s):
        term = _WS.sub("", term)
        factors = term.split("*")
        if len(factors) > 2:
            raise CatalogError("bad form term %r" % term)
        if len(factors) == 2:
            coeff = _parse_rational(factors[0]) * sign
            chain = factors[1]
        elif _RATIONAL.match(factors[0]):
            coeff = _parse_rational(factors[0]) * sign
            chain = None
        else:
            coeff = Fraction(sign)
            chain = factors[0]
        mask = 0
        msign = 1
        if chain is not None:
            for gen in chain.split("^"):
                m = _GEN.match(gen)
                if not m:
                    raise CatalogError("bad generator %r in form term %r"
                                       % (gen, term))
                if m.group(1) is None:  # y
                    if not has_y:
                        raise CatalogError("'y' used in a form without a "
                                           "one-dimensional factor")
                    idx = dim + 1
                else:
                    idx = _int(m.group(1))
                    if not 1 <= idx <= dim:
                        raise CatalogError("x%d outside 1..%d in form term %r"
                                           % (idx, dim, term))
                bit = 1 << (idx - 1)
                msign *= wedge_sign(mask, bit)  # 0 on a repeated generator
                if not msign:
                    break
                mask |= bit
        if msign:  # Multivector drops the terms that cancel
            terms[mask] = terms.get(mask, 0) + coeff * msign
    return Multivector(ambient, terms)
