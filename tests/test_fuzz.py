"""The catalog and form parsers, and the binding of a parsed entry, on
generated garbage: only a CatalogError or a ValueError may escape, never a
traceback of another kind.

The catalogs are token soups: entries built from the format's own lines
(algebra, dim, param, bracket, form, end) with malformed integers,
coefficients and lambda powers mixed in, and now and then a line dropped
or a junk line inserted, so that many entries parse and reach
`CatalogEntry.algebra`.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nilsym import CatalogError, LieAlgebra, parse_catalog, parse_form

LONG = "7" * 4301  # over Python's default int conversion limit


def mostly(valid, garbage):
    """`valid` nine times in ten, else `garbage`, so that most entries
    parse and the ones that do not fail at varied places."""
    return st.integers(0, 9).flatmap(lambda k: garbage if k == 0 else valid)


BAD_INTEGERS = st.sampled_from(["0", "6", "64", "65", "-1", "007", "²", "x",
                                "", "9" * 40, LONG])
DIMS = mostly(st.sampled_from(["4", "5"]), BAD_INTEGERS)
TARGETS = mostly(st.sampled_from(["1", "2", "3", "4"]), BAD_INTEGERS)
PAIRS = mostly(st.sampled_from(["1,2", "1,3", "2,3", "1,4", "2,4", "3,4",
                                "4,3"]),
               st.sampled_from(["1,1", "0,2", "1,6", "", "1", "1,2,3",
                                "1," + LONG]))
SIGNS = mostly(st.sampled_from(["+", "-"]), st.sampled_from(["", "+ -", "--"]))
COEFFICIENTS = mostly(st.sampled_from([
    "", "2*", "1/2*", "-3*", "0*", "lambda*", "2*lambda*", "lambda^2*",
    "lambda^64*", "(2*lambda-1)*", "(1 + lambda - lambda)*",
    "(lambda - lambda)*"]), st.sampled_from([
        "1/0*", "lambda^0*", "lambda^65*", "lambda^x*", "lambda^40*lambda^30*",
        "(lambda*", "lambda)*", "((1))*", "(+-1)*", "mu*", "**", LONG + "*",
        "1/" + LONG + "*"]))
PARAM_LINES = mostly(st.sampled_from([
    "param lambda", "param lambda exclude {0}",
    "param lambda exclude {1, -1/2}", ""]), st.sampled_from([
        "param lambda exclude {1/0}", "param lambda exclude {}",
        "param lambda exclude {%s}" % LONG, "param mu",
        "param lambda exclude {0"]))
FORM_KINDS = mostly(st.sampled_from(["symplectic", "contact"]),
                    st.just("kahler"))
FORM_EXPRESSIONS = st.lists(st.sampled_from([
    "x1", "x2", "x3", "x0", "x9", "y", "^", "*", "+", "-", " ", "1/2", "3",
    "1/0", "(", ")", "x", "x" + "1" * 30, "²", "y^y", "x1^x1", LONG]),
    max_size=10).map("".join)


@st.composite
def bracket_lines(draw, pair):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        terms.append("%s %s%s" % (draw(SIGNS), draw(COEFFICIENTS),
                                  "e" + draw(TARGETS)))
    return "bracket [%s] = %s" % (pair, " ".join(terms))


@st.composite
def entry_lines(draw, n):
    lines = ["algebra g%d" % n, "dim " + draw(DIMS), draw(PARAM_LINES)]
    for pair in draw(st.lists(PAIRS, max_size=4, unique=True)):
        lines.append(draw(bracket_lines(pair)))
    for _ in range(draw(st.integers(0, 2))):
        lines.append('form %s "%s"' % (draw(FORM_KINDS),
                                       draw(FORM_EXPRESSIONS)))
    lines.append("end")
    if draw(st.integers(0, 9)) == 0:  # drop a line
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.integers(0, 9)) == 0:  # insert a junk line
        junk = draw(st.one_of(st.text(max_size=12), st.sampled_from(
            ["algebra", "dim", "param", "bracket", "form", "end", "# note",
             "algebra g0", "bracket [1,2] = e3 # trailing"])))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return lines


@st.composite
def catalogs(draw):
    lines = []
    for n in range(draw(st.integers(1, 2))):
        lines += draw(entry_lines(n))
    return "\n".join(lines) + "\n"


BINDINGS = (None, {"lambda": Fraction(1)}, {"lambda": Fraction(0)},
            {"mu": Fraction(1)})


@settings(derandomize=True, max_examples=600, deadline=None)
@given(catalogs())
def test_token_soup_catalogs_raise_only_catalog_or_value_errors(text):
    try:
        entries = parse_catalog(text)
    except CatalogError as exc:
        assert exc.line is not None
        return
    for entry in entries:
        for bindings in BINDINGS:
            try:
                g = entry.algebra(bindings)
            except ValueError:
                continue
            assert isinstance(g, LieAlgebra)
            assert all(isinstance(c, Fraction)
                       for row in g.brackets.values() for c in row.values())


@settings(derandomize=True, max_examples=600, deadline=None)
@given(FORM_EXPRESSIONS, st.integers(1, 8), st.booleans())
def test_random_form_expressions_raise_only_catalog_errors(expr, dim, has_y):
    try:
        form = parse_form(expr, dim, has_y)
    except CatalogError:
        return
    assert form.dim == dim + has_y
