import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilsym import (CatalogError, LieAlgebra, MPoly, Multivector, builtin,
                    cli, jacobi_violation, mask_of, parse_catalog, parse_form,
                    upper_central_series)
from helpers import form, random_multivector

HEISENBERG5_TEXT = """\
# Heisenberg, dimension five
algebra h5
dim 5

bracket [2,3] = e1
bracket [4,5] = e1
end
"""


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


def test_parse_heisenberg5_entry():
    entries = parse_catalog(HEISENBERG5_TEXT)
    assert len(entries) == 1
    e = entries[0]
    assert e.name == "h5" and e.dim == 5
    assert e.brackets == {(2, 3): {1: Fraction(1)}, (4, 5): {1: Fraction(1)}}
    assert e.algebra() == builtin("heisenberg:5")


def test_parse_normalizes_reversed_bracket():
    entries = parse_catalog("algebra g\ndim 3\nbracket [3,2] = e1\nend\n")
    assert entries[0].brackets == {(2, 3): {1: Fraction(-1)}}


def test_parse_rejects_out_of_range_index():
    with pytest.raises(CatalogError) as err:
        parse_catalog("algebra g\ndim 7\nbracket [2,8] = e1\nend\n")
    assert err.value.line == 3


def test_parse_rejects_out_of_range_target():
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\nbracket [1,2] = e4\nend\n")


def test_parse_rejects_duplicate_bracket():
    text = "algebra g\ndim 3\nbracket [1,2] = e3\nbracket [2,1] = e3\nend\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text)
    assert "duplicate" in str(err.value)


# (catalog bracket lines, the same brackets as a LieAlgebra dict, column):
# the catalog gives an index fault its line only and a target fault also
# the column of the right-hand side.
MALFORMED_BRACKETS = [
    (["bracket [1,1] = e3"], {(1, 1): {3: 1}}, None),
    (["bracket [0,2] = e3"], {(0, 2): {3: 1}}, None),
    (["bracket [1,4] = e3"], {(1, 4): {3: 1}}, None),
    (["bracket [1,2] = e3", "bracket [2,1] = e3"],
     {(1, 2): {3: 1}, (2, 1): {3: 1}}, None),
    (["bracket [1,2] = e4"], {(1, 2): {4: 1}}, len("bracket [1,2] = ") + 1),
]


@pytest.mark.parametrize("lines, brackets, column", MALFORMED_BRACKETS)
def test_malformed_brackets_give_one_message_on_both_paths(lines, brackets, column):
    with pytest.raises(ValueError) as direct:
        LieAlgebra("g", 3, brackets)
    with pytest.raises(CatalogError) as parsed:
        parse_catalog("\n".join(["algebra g", "dim 3", *lines, "end"]) + "\n")
    assert parsed.value.body == str(direct.value)
    assert (parsed.value.line, parsed.value.column) == (2 + len(lines), column)


def test_dim_over_the_limit_is_rejected_when_the_algebra_is_built():
    [entry] = parse_catalog("algebra g\ndim 65\nend\n")
    with pytest.raises(ValueError, match="limit of 64"):
        entry.algebra()


def test_parse_rejects_zero_denominator():
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\nbracket [1,2] = 1/0*e3\nend\n")


def test_parse_errors_report_line_and_column():
    with pytest.raises(CatalogError) as err:
        parse_catalog("algebra g\ndim 3\nbracket [1,2] = bogus\nend\n")
    assert err.value.line == 3
    assert err.value.column == len("bracket [1,2] = ") + 1


def test_parse_rejects_repeated_index_bracket():
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\nbracket [2,2] = e1\nend\n")


def test_parse_structural_errors():
    with pytest.raises(CatalogError):
        parse_catalog("dim 3\n")  # no algebra header
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\nbracket [1,2] = e3\nend\n")  # bracket before dim
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\n")  # missing end
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\nnonsense\nend\n")
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\nend\nalgebra g\ndim 2\nend\n")


def test_parse_rational_and_negative_coefficients():
    entries = parse_catalog(
        "algebra g\ndim 4\nbracket [1,2] = 1/2*e3 - 2*e4 + e1\nend\n")
    assert entries[0].brackets == {(1, 2): {
        3: Fraction(1, 2), 4: Fraction(-2), 1: Fraction(1)}}


def test_parse_lambda_coefficients():
    text = ("algebra fam\ndim 3\nparam lambda exclude {0, 1/2}\n"
            "bracket [1,2] = lambda*e3\n"
            "bracket [1,3] = (2*lambda-1)*e3 + e2\nend\n")
    e = parse_catalog(text)[0]
    assert e.param == "lambda"
    assert e.param_exclusions == (Fraction(0), Fraction(1, 2))
    assert e.brackets[(1, 2)][3] == MPoly(1, {(0,): 1})
    assert e.brackets[(1, 3)][3] == MPoly(1, {(0,): 2, (): -1})
    g = e.algebra({"lambda": Fraction(1)})
    assert g.bracket_basis(1, 3) == {2: Fraction(1), 3: Fraction(1)}
    with pytest.raises(ValueError, match="excluded"):
        e.algebra({"lambda": Fraction(1, 2)})
    with pytest.raises(ValueError, match="unbound"):
        e.algebra()


FAMILY_TEXT = """\
algebra family
dim 3
param lambda exclude {0}
bracket [1,2] = lambda*e3
end
"""

# (catalog text, bindings, the algebra built, or the ValueError's text)
BINDINGS = {
    "bound": (FAMILY_TEXT, {"lambda": Fraction(1, 2)},
              LieAlgebra("family", 3, {(1, 2): {3: Fraction(1, 2)}})),
    "no-parameter": (HEISENBERG5_TEXT, None, builtin("heisenberg:5")),
    "unbound": (FAMILY_TEXT, None, "parameter 'lambda' is unbound"),
    "excluded": (FAMILY_TEXT, {"lambda": 0},
                 "parameter lambda = 0 is excluded for family"),
    "unknown-name": (FAMILY_TEXT, {"mu": 1}, "unknown parameter 'mu'"),
    "unknown-name-no-parameter": (HEISENBERG5_TEXT, {"lambda": 1},
                                  "unknown parameter 'lambda'"),
}


@pytest.mark.parametrize("text, bindings, expected", BINDINGS.values(),
                         ids=BINDINGS.keys())
def test_catalog_entry_algebra_binds_families(text, bindings, expected):
    (entry,) = parse_catalog(text)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            entry.algebra(bindings)
        assert str(err.value) == expected
    else:
        g = entry.algebra(bindings)
        assert g == expected and g.name == entry.name
        assert all(isinstance(c, Fraction)
                   for row in g.brackets.values() for c in row.values())


def test_parse_lambda_without_declaration_rejected():
    with pytest.raises(CatalogError):
        parse_catalog("algebra g\ndim 3\nbracket [1,2] = lambda*e3\nend\n")


def test_parse_bare_param_line_and_quadratic_lambda():
    text = ("algebra g\ndim 3\nparam lambda\n"
            "bracket [1,2] = lambda^2*e3 + (1-lambda^2)*e2\nend\n")
    e = parse_catalog(text)[0]
    assert e.param == "lambda" and e.param_exclusions == ()
    assert e.brackets[(1, 2)][3] == MPoly(1, {(0, 0): 1})
    assert e.brackets[(1, 2)][2] == MPoly(1, {(): 1, (0, 0): -1})
    g = e.algebra({"lambda": Fraction(2)})
    assert g.bracket_basis(1, 2) == {3: Fraction(4), 2: Fraction(-3)}


def test_lambda_terms_that_cancel_leave_a_constant(tmp_path, capsys):
    def text(coef):
        return ("algebra g\ndim 3\nparam lambda\n"
                "bracket [1,2] = %s*e3 + e2\nend\n" % coef)

    e = parse_catalog(text("(1 + lambda - lambda)"))[0]
    assert e.brackets[(1, 2)][3] == Fraction(1)
    path = tmp_path / "g.cat"
    path.write_text(text("(1 + lambda - lambda)"))
    assert cli.main(["check", str(path)]) == 0  # no --param needed
    assert "jacobi: yes" in capsys.readouterr().out
    e = parse_catalog(text("(lambda - lambda)"))[0]
    assert e.brackets[(1, 2)] == {2: Fraction(1)}


def test_parse_lambda_power_limit():
    def parse(coef):
        return parse_catalog("algebra g\ndim 3\nparam lambda\n"
                             "bracket [1,2] = %s*e3\nend\n" % coef)

    assert (parse("lambda^64")[0].brackets[(1, 2)][3]
            == MPoly(1, {(0,) * 64: 1}))
    for coef in ("lambda^65", "lambda^40*lambda^30", "(1 + lambda^65)"):
        with pytest.raises(CatalogError) as exc:
            parse(coef)
        assert exc.value.line == 4 and exc.value.column == 17
        assert "exceeds 64" in str(exc.value)
    for coef in ("lambda^0", "lambda^x", "lambda^\u00b2"):
        with pytest.raises(CatalogError, match="bad lambda power"):
            parse(coef)


def test_parse_numbers_over_the_int_digit_limit():
    # Python converts at most 4300 digits by default; the parser reports
    # such a number with its line instead of letting that ValueError out.
    long = "7" * 4301
    cases = [("algebra g\ndim 3\nbracket [1,2] = %s*e3\nend\n" % long, 3, 17),
             ("algebra g\ndim 3\nbracket [1,2] = 1/%s*e3\nend\n" % long, 3, 17),
             ("algebra g\ndim 3\nbracket [1,2] = e%s\nend\n" % long, 3, 17),
             ("algebra g\ndim 3\nbracket [1,%s] = e3\nend\n" % long, 3, None),
             ("algebra g\ndim %s\nend\n" % long, 2, None)]
    for text, line, column in cases:
        with pytest.raises(CatalogError) as exc:
            parse_catalog(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert "4301 digits" in str(exc.value)
    with pytest.raises(CatalogError, match="4301 digits"):
        parse_form("x%s" % long, 3)
    with pytest.raises(CatalogError, match="bad integer"):
        parse_catalog("algebra g\ndim \u00b2\nend\n")


def test_parse_negative_exclusions():
    text = "algebra g\ndim 2\nparam lambda exclude {-1, -1/2}\nend\n"
    e = parse_catalog(text)[0]
    assert e.param_exclusions == (Fraction(-1), Fraction(-1, 2))


def test_parse_rejects_unknown_form_kind():
    with pytest.raises(CatalogError):
        parse_catalog('algebra g\ndim 2\nform kahler "x1^x2"\nend\n')


def test_claimed_forms_carried_verbatim():
    text = ('algebra a5\ndim 5\nform symplectic "x1^x2 + x3^x4 + x5^y"\n'
            'form contact "x1"\nend\n')
    e = parse_catalog(text)[0]
    assert e.claimed_forms == (("symplectic", "x1^x2 + x3^x4 + x5^y"),
                               ("contact", "x1"))


def test_parse_lambda_coefficients_pinned():
    text = ("algebra fam\ndim 4\nparam lambda\n"
            "bracket [1,3] = (-1/3 + lambda^3)*e4 + (2*lambda - 1)*e3 + e2\n"
            "bracket [1,2] = lambda*e3 - 2*lambda*lambda*e4\nend\n")
    (e,) = parse_catalog(text)
    assert e.brackets == {
        (1, 3): {4: MPoly(1, {(): Fraction(-1, 3), (0, 0, 0): 1}),
                 3: MPoly(1, {(0,): 2, (): -1}), 2: Fraction(1)},
        (1, 2): {3: MPoly(1, {(0,): 1}), 4: MPoly(1, {(0, 0): -2})}}


# (bracket line, the row it stores, the same bracket at lambda = 2 written
# with a rational constant)
LAMBDA_CASES = {
    "reversed-bracket": ("bracket [3,1] = (2*lambda-1)*e2",
                         {(1, 3): {2: MPoly(1, {(0,): -2, (): 1})}},
                         "bracket [3,1] = 3*e2"),
    "cancelling-terms": ("bracket [1,2] = lambda*e3 + e3 - lambda*e3",
                         {(1, 2): {3: Fraction(1)}}, "bracket [1,2] = e3"),
    "rational-factors": ("bracket [1,2] = 2*lambda*1/2*e3",
                         {(1, 2): {3: MPoly(1, {(0,): 1})}},
                         "bracket [1,2] = 2*e3"),
}


@pytest.mark.parametrize("line, stored, at_two", LAMBDA_CASES.values(),
                         ids=LAMBDA_CASES.keys())
def test_lambda_coefficient_cases(line, stored, at_two, tmp_path, capsys):
    family = "algebra g\ndim 3\nparam lambda\n%s\nend\n" % line
    constant = "algebra g\ndim 3\n%s\nend\n" % at_two
    (entry,), (fixed,) = parse_catalog(family), parse_catalog(constant)
    assert entry.brackets == stored
    assert all(type(c) is type(stored[key][k])
               for key, row in entry.brackets.items() for k, c in row.items())
    assert entry.algebra({"lambda": 2}) == fixed.algebra()
    rows = []
    for name, text, extra in (("family", family, ["--param", "lambda=2"]),
                              ("constant", constant, [])):
        path, out = tmp_path / (name + ".cat"), tmp_path / (name + ".json")
        path.write_text(text)
        assert cli.main(["check", str(path), "--json", str(out)] + extra) == 0
        rows.append(json.loads(out.read_text()))
    assert rows[0] == rows[1]
    capsys.readouterr()


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# one coefficient per degree 0..4 of a lambda-polynomial
lambda_polys = st.lists(small_rationals, min_size=1, max_size=5)


@st.composite
def lambda_entries(draw):
    """Catalog text of a dim-5 family whose brackets have several targets,
    each a lambda-polynomial written term by term in a drawn order, with
    the polynomials it was written from."""
    brackets = {}
    lines = ["algebra fam", "dim 5", "param lambda exclude {%s}"
             % ", ".join(str(x) for x in draw(st.lists(small_rationals,
                                                       max_size=2)))]
    pairs = draw(st.lists(st.sampled_from([(1, 2), (1, 3), (2, 4), (3, 4)]),
                          min_size=1, max_size=3, unique=True))
    for i, j in pairs:
        targets = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3,
                                unique=True))
        terms = []
        for k in targets:
            coeffs = draw(lambda_polys)
            brackets[(i, j, k)] = coeffs
            monos = ["%s*lambda^%d" % (abs(c), d) if d else str(abs(c))
                     for d, c in enumerate(coeffs)]
            signs = ["-" if c < 0 else "+" for c in coeffs]
            order = draw(st.permutations(range(len(coeffs))))
            body = " ".join(signs[d] + " " + monos[d] for d in order)
            terms.append("(%s)*e%d" % (body, k))
        lines.append("bracket [%d,%d] = %s" % (i, j, " + ".join(terms)))
    return "\n".join(lines + ["end"]) + "\n", brackets


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lambda_entries(), small_rationals)
def test_lambda_render_parse_round_trip_and_evaluation(case, r):
    text, polys = case
    (entry,) = parse_catalog(text)
    assume(r not in entry.param_exclusions)
    g = entry.algebra({"lambda": r})
    expected = {}
    for (i, j, k), coeffs in polys.items():
        value = sum(c * r ** d for d, c in enumerate(coeffs))
        if value:
            expected.setdefault((i, j), {})[k] = value
    assert g.brackets == expected


# ---- builtins ----------------------------------------------------------------


def test_builtin_heisenberg5_brackets():
    h5 = builtin("heisenberg:5")
    assert h5.dim == 5
    assert h5.brackets == {(2, 3): {1: Fraction(1)}, (4, 5): {1: Fraction(1)}}


def test_builtin_heisenberg3():
    h3 = builtin("heisenberg:3")
    assert h3.brackets == {(2, 3): {1: Fraction(1)}}


def test_builtin_g13457C_brackets():
    g = builtin("g13457C")
    assert g.brackets == {
        (1, 2): {3: Fraction(1)}, (1, 3): {4: Fraction(1)},
        (1, 4): {5: Fraction(1)}, (1, 6): {7: Fraction(1)},
        (2, 5): {7: Fraction(1)}, (3, 4): {7: Fraction(-1)}}


def test_builtin_abelian_has_no_brackets():
    assert builtin("abelian:6").brackets == {}


def test_builtin_errors():
    for bad in ("unknown", "heisenberg:4", "heisenberg:1", "abelian:0",
                "heisenberg", "abelian:x"):
        with pytest.raises(ValueError):
            builtin(bad)


def test_every_builtin_satisfies_jacobi_and_nilpotency():
    names = ["abelian:%d" % n for n in (1, 3, 6)] + \
            ["heisenberg:%d" % n for n in (3, 5, 7)] + ["g13457C"]
    for name in names:
        g = builtin(name)
        assert jacobi_violation(g) is None
        assert upper_central_series(g).is_nilpotent


def test_heisenberg_ucs_profile():
    for n in range(1, 5):
        dims = upper_central_series(builtin("heisenberg:%d" % (2 * n + 1))).dims
        assert dims == (1, 2 * n + 1)


# ---- form expressions ----------------------------------------------------------


def test_parse_form_a5_row():
    parsed = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
    assert parsed == form(6, {(1, 2): 1, (3, 4): 1, (5, 6): 1})


def test_parse_form_2357C_row():
    lhs = parse_form("2*x3^x6 + x4^x5 - x2^x7 + x1^y", 7, has_y=True)
    rhs = parse_form("-x2^x7 + 2*x3^x6 + x4^x5 + x1^y", 7, has_y=True)
    assert lhs == rhs
    assert lhs.terms[mask_of((3, 6))] == 2


def test_parse_form_repeated_generator_is_zero():
    assert parse_form("x1^x1", 4).is_zero()


def test_parse_form_unsorted_generators_pick_up_sign():
    assert parse_form("x3^x2", 4) == form(4, {(2, 3): -1})
    assert parse_form("x1^x3^x2", 4) == form(4, {(1, 2, 3): -1})


def test_parse_form_fractional_coefficients():
    parsed = parse_form("1/2*x3^x6 + x1^x7", 7)
    assert parsed.terms[mask_of((3, 6))] == Fraction(1, 2)


def test_parse_form_errors():
    with pytest.raises(CatalogError):
        parse_form("x1^y", 5)  # y without has_y
    with pytest.raises(CatalogError):
        parse_form("x9^x1", 7, has_y=True)  # index out of range
    with pytest.raises(CatalogError):
        parse_form("x1^", 5)
    with pytest.raises(CatalogError):
        parse_form("", 5)
    with pytest.raises(CatalogError):
        parse_form("x1 x2", 5)


def test_parse_form_bare_constant_and_degree_one():
    assert parse_form("x1", 5) == mono(5, 1)
    assert parse_form("3/2", 5) == form(5, {(): Fraction(3, 2)})


def test_parse_form_whitespace_insensitive():
    a = parse_form("x1 ^ x2+ x3^x4 -  1/2 * x1 ^ x5", 5)
    b = parse_form("x1^x2+x3^x4-1/2*x1^x5", 5)
    assert a == b


def test_form_render_round_trip_random():
    rng = random.Random(71)
    for _ in range(40):
        dim = rng.randint(1, 6)
        has_y = rng.random() < 0.5
        ambient = dim + 1 if has_y else dim
        m = random_multivector(rng, ambient, nterms=4)
        labels = ["x%d" % i for i in range(1, ambient + 1)]
        if has_y:
            labels[-1] = "y"
        text = m.render(labels)
        assert parse_form(text, dim, has_y=has_y) == m
