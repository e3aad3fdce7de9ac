"""Catalog text format, bundled generators, and form expressions.

The flat file format (one entry per algebra, `#` comments, blank lines
ignored):

    algebra <name>
    dim <positive integer>
    param lambda exclude {<rational>, ...}    # optional
    bracket [i,j] = <coef>*e<k> (+|-) <coef>*e<k> ...
    form symplectic "<expr>"                  # optional, repeatable
    form contact "<expr>"                     # optional, repeatable
    end

Coefficients are rationals (`p`, `p/q`), `lambda` monomials, or
parenthesized lambda-polynomials like `(2*lambda-1)`.  The total power of
`lambda` in one monomial (`lambda^40*lambda^30` counts 70) is at most
MAX_LAMBDA_POWER; a higher power is a CatalogError, raised before any
coefficient list is built.  Form expressions use
the grammar `term ((+|-) term)*` with `term := [rational "*"] gen ("^"
gen)*` and `gen := x<int> | y`.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .exterior import Multivector, wedge_sign
from .liealg import LieAlgebra, ParamPoly, instantiate_params


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


def _parse_rational(text, line=None):
    s = text.strip()
    if not _RATIONAL.match(s):
        raise CatalogError("expected a rational, got %r" % s, line)
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise CatalogError("zero denominator in %r" % s, line)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


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
    """A product of rational and lambda factors, e.g. `2*lambda`."""
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
    if power:
        if param is None:
            raise CatalogError("'lambda' used without a param declaration", line)
        if coeff == 0:
            return Fraction(0)
        return ParamPoly(param, [0] * power + [coeff])
    return coeff


def _parse_coeff(text, param, line):
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        total = Fraction(0)
        for sign, term in _signed_terms(s[1:-1], line):
            total = total + _parse_simple_coeff(term, param, line, sign)
        return total
    return _parse_simple_coeff(s, param, line)


def _parse_bracket_rhs(text, dim, param, line):
    combo = {}
    for sign, term in _signed_terms(text, line):
        m = _BRACKET_TERM.match(_WS.sub("", term))
        if not m:
            raise CatalogError("bad bracket term %r" % term, line)
        k = int(m.group("k"))
        if not 1 <= k <= dim:
            raise CatalogError("bracket target e%d outside 1..%d" % (k, dim), line)
        coef = m.group("coef")
        c = Fraction(1) if coef is None else _parse_coeff(coef, param, line)
        if sign < 0:
            c = -c
        prev = combo.get(k, Fraction(0))
        combo[k] = prev + c
    return {k: c for k, c in combo.items()
            if not (isinstance(c, Fraction) and c == 0)}


@dataclass
class CatalogEntry:
    """One parsed algebra definition plus any claimed forms."""

    name: str
    dim: int
    brackets: dict
    param: str | None = None
    param_exclusions: tuple = ()
    claimed_forms: tuple = ()

    def algebra(self, bindings=None):
        g = LieAlgebra(self.name, self.dim, self.brackets,
                       param=self.param, param_exclusions=self.param_exclusions)
        if bindings:
            g = instantiate_params(g, bindings)
        return g

    def render(self):
        lines = ["algebra %s" % self.name, "dim %d" % self.dim]
        if self.param is not None:
            if self.param_exclusions:
                body = ", ".join(str(x) for x in sorted(self.param_exclusions))
                lines.append("param lambda exclude {%s}" % body)
            else:
                lines.append("param lambda")
        for (i, j) in sorted(self.brackets):
            lines.append("bracket [%d,%d] = %s"
                         % (i, j, _render_combo(self.brackets[(i, j)])))
        for kind, expr in self.claimed_forms:
            lines.append('form %s "%s"' % (kind, expr))
        lines.append("end")
        return "\n".join(lines)


def _render_combo(combo):
    parts = []
    for k in sorted(combo):
        c = combo[k]
        if isinstance(c, ParamPoly):
            if c.is_monomial():
                body = c.render()
                neg = body.startswith("-")
                if neg:
                    body = body[1:]
                body = "%s*e%d" % (body, k)
            else:
                neg = False
                body = "(%s)*e%d" % (c.render(), k)
        else:
            neg = c < 0
            mag = abs(c)
            body = "e%d" % k if mag == 1 else "%s*e%d" % (mag, k)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def render_catalog(entries):
    return "\n\n".join(e.render() for e in entries) + "\n"


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
            if not body.isdigit() or int(body) < 1:
                raise CatalogError("dim must be a positive integer, got %r" % body,
                                   lineno)
            state["dim"] = int(body)
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
            i, j = int(m.group(1)), int(m.group(2))
            if i == j:
                raise CatalogError("bracket [%d,%d] is identically zero" % (i, j),
                                   lineno)
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            dim = state["dim"]
            if not 1 <= i < j <= dim:
                raise CatalogError("bracket indices [%d,%d] outside 1..%d"
                                   % (i, j, dim), lineno)
            if (i, j) in state["brackets"]:
                raise CatalogError("duplicate bracket [%d,%d]" % (i, j), lineno)
            try:
                combo = _parse_bracket_rhs(m.group(3), dim, state["param"],
                                           lineno)
            except CatalogError as exc:
                if exc.column is None:
                    raise CatalogError(exc.body, lineno,
                                       raw.find(m.group(3)) + 1) from None
                raise
            if sign < 0:
                combo = {k: -c for k, c in combo.items()}
            if combo:
                state["brackets"][(i, j)] = combo
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
    """Construct a bundled algebra: abelian:N, heisenberg:N (odd), g13457C.

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
                    idx = int(m.group(1))
                    if not 1 <= idx <= dim:
                        raise CatalogError("x%d outside 1..%d in form term %r"
                                           % (idx, dim, term))
                bit = 1 << (idx - 1)
                if mask & bit:
                    msign = 0  # repeated generator annihilates the term
                    break
                s_ = wedge_sign(mask, bit)
                msign *= s_
                mask |= bit
        if msign == 0:
            continue
        c = coeff * msign
        prev = terms.get(mask, Fraction(0))
        total = prev + c
        if total:
            terms[mask] = total
        elif mask in terms:
            del terms[mask]
    return Multivector(ambient, terms)


def form_labels(ambient, has_y=False):
    """Dual labels x1..xn, with the last replaced by y for products with a."""
    labels = ["x%d" % i for i in range(1, ambient + 1)]
    if has_y:
        labels[-1] = "y"
    return labels


def render_form(mv, has_y=False):
    """Canonical text for a form, the inverse of parse_form."""
    return mv.render(form_labels(mv.dim, has_y))
