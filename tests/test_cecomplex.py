import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from nilsym import (LieAlgebra, Multivector, betti_numbers, build_complex,
                    builtin, cecomplex, cocycle_basis, direct_product,
                    indices_of, jacobi_violation, mask_of, parse_catalog,
                    parse_catalog_file)
from nilsym.cecomplex import (degree_monomials, differential_matrix,
                              is_unimodular)
from helpers import (change_basis, combine, form, oracle_cocycle_basis, oracle_d_squared_vanishes,
                     oracle_differential, oracle_jacobi_violation, oracle_rank, random_invertible,
                     random_multivector, random_nilpotent,
                     rnd_nonzero_fraction, wedge)

BUNDLED = ("abelian:1", "abelian:2", "abelian:3", "abelian:4", "abelian:5",
           "heisenberg:3", "heisenberg:5", "heisenberg:7", "g13457C")
BUNDLED_CATALOG = Path(__file__).resolve().parent.parent / "catalogs" / "bundled.cat"


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


def one_global_sign(actual, expected):
    """True iff actual == s * expected for one s in {+1,-1} across the list."""
    for s in (1, -1):
        if all(a == combine((s, e)) for a, e in zip(actual, expected)):
            return True
    return False


def test_build_complex_heisenberg5():
    c = build_complex(builtin("heisenberg:5"))
    dx1 = c.generator_differentials[0]
    # the generator formula pins dx1 = -(x2x3 + x4x5); verdicts are
    # insensitive to the global sign, fixtures are not, so check both ways
    assert dx1 == form(5, {(2, 3): -1, (4, 5): -1})
    assert one_global_sign([dx1], [form(5, {(2, 3): 1, (4, 5): 1})])
    for k in range(1, 5):
        assert c.generator_differentials[k].is_zero()


def test_build_complex_abelian_all_zero():
    c = build_complex(builtin("abelian:4"))
    assert all(d.is_zero() for d in c.generator_differentials)


def test_build_complex_g13457C_matches_published_differentials():
    c = build_complex(builtin("g13457C"))
    expected = [
        Multivector(7),                                      # dx1
        Multivector(7),                                      # dx2
        mono(7, 1, 2),                                            # dx3
        mono(7, 1, 3),                                            # dx4
        mono(7, 1, 4),                                            # dx5
        Multivector(7),                                      # dx6
        form(7, {(1, 6): 1, (2, 5): 1, (3, 4): -1}),              # dx7
    ]
    assert one_global_sign(list(c.generator_differentials), expected)


def test_differential_on_monomials_heisenberg5():
    c = build_complex(builtin("heisenberg:5"))
    d12 = c.differential(mono(5, 1, 2))
    assert one_global_sign([d12], [mono(5, 2, 4, 5)])


def test_differential_on_monomials_g13457C():
    c = build_complex(builtin("g13457C"))
    d35 = c.differential(mono(7, 3, 5))
    assert one_global_sign([d35], [form(7, {(1, 2, 5): 1, (1, 3, 4): 1})])


def test_differential_kills_constants_and_closed_generators():
    c = build_complex(builtin("heisenberg:5"))
    assert c.differential(Multivector(5, {0: 1})).is_zero()
    assert c.differential(mono(5, 2)).is_zero()


def test_differential_raises_degree_by_one():
    c = build_complex(builtin("g13457C"))
    rng = random.Random(50)
    for _ in range(20):
        d = rng.randint(0, 6)
        f = random_multivector(rng, 7, nterms=3, degrees=[d])
        assert c.differential(f).is_homogeneous(d + 1)


def test_differential_dimension_mismatch():
    c = build_complex(builtin("heisenberg:5"))
    with pytest.raises(ValueError):
        c.differential(Multivector(4, {0: 1}))


def jacobi_violator():
    return LieAlgebra("violator", 3, {
        (1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: -1}})


def test_d_squared_examples():
    assert oracle_d_squared_vanishes(build_complex(builtin("heisenberg:5")))
    assert oracle_d_squared_vanishes(build_complex(builtin("abelian:5")))
    assert not oracle_d_squared_vanishes(build_complex(jacobi_violator()))


def test_d_squared_iff_jacobi_on_random_brackets():
    rng = random.Random(51)
    seen_true = seen_false = 0
    while seen_true < 8 or seen_false < 8:
        dim = rng.randint(3, 5)
        brackets = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, dim - 1)
            j = rng.randint(i + 1, dim)
            k = rng.randint(1, dim)
            brackets.setdefault((i, j), {})[k] = rng.choice((-2, -1, 1, 2))
        g = LieAlgebra("rand", dim, brackets)
        holds = jacobi_violation(g) is None
        assert oracle_d_squared_vanishes(build_complex(g)) == holds
        assert jacobi_violation(g) == oracle_jacobi_violation(g)
        seen_true += holds
        seen_false += not holds


def test_cocycles_abelian4_degree2_are_all_monomials():
    basis = cocycle_basis(build_complex(builtin("abelian:4")), 2)
    assert basis == [mono(4, 1, 2), mono(4, 1, 3), mono(4, 1, 4),
                     mono(4, 2, 3), mono(4, 2, 4), mono(4, 3, 4)]


def test_cocycles_heisenberg5_times_a_degree2():
    from nilsym import direct_product
    g = direct_product(builtin("heisenberg:5"), builtin("abelian:1"))
    c = build_complex(g)
    basis = cocycle_basis(c, 2)
    matrix, domain, _ = differential_matrix(c, 2)
    # oracle: independent rank computation of the 15x20 differential matrix
    assert len(domain) == 15
    assert len(basis) == 15 - oracle_rank(matrix) == 10
    for v in basis:
        assert c.differential(v).is_zero()
    span = [[mv.terms.get(m, Fraction(0)) for m in domain] for mv in basis]
    for member in (form(6, {(2, 3): 1, (4, 5): 1}), mono(6, 5, 6)):
        row = [member.terms.get(m, Fraction(0)) for m in domain]
        assert oracle_rank(span + [row]) == oracle_rank(span)


def test_cocycles_degree_zero_are_constants():
    basis = cocycle_basis(build_complex(builtin("g13457C")), 0)
    assert basis == [Multivector(7, {0: 1})]


def test_cocycle_degree_out_of_range():
    c = build_complex(builtin("abelian:3"))
    with pytest.raises(ValueError):
        cocycle_basis(c, 4)


def test_betti_abelian_rows_are_binomials():
    for n in (1, 2, 4, 6):
        b = betti_numbers(build_complex(builtin("abelian:%d" % n)))
        assert b == tuple(comb(n, i) for i in range(n + 1))


def test_betti_heisenberg3_against_rank_oracle():
    c = build_complex(builtin("heisenberg:3"))
    ranks = [oracle_rank(differential_matrix(c, d)[0]) for d in range(4)]
    expected = [comb(3, d) - ranks[d] - (ranks[d - 1] if d else 0)
                for d in range(4)]
    assert expected == [1, 2, 2, 1]
    assert betti_numbers(c) == (1, 2, 2, 1)


def test_betti_heisenberg5_against_rank_oracle():
    c = build_complex(builtin("heisenberg:5"))
    ranks = [oracle_rank(differential_matrix(c, d)[0]) for d in range(6)]
    expected = [comb(5, d) - ranks[d] - (ranks[d - 1] if d else 0)
                for d in range(6)]
    assert list(betti_numbers(c)) == expected == [1, 4, 5, 5, 4, 1]


def test_betti_first_is_dim_minus_bracket_rank():
    for name in BUNDLED:
        g = builtin(name)
        c = build_complex(g)
        rank_d1 = oracle_rank(differential_matrix(c, 1)[0])
        assert betti_numbers(c)[1] == g.dim - rank_d1


def betti(g):
    return list(betti_numbers(build_complex(g)))


def oracle_betti(c):
    """Betti numbers from oracle_rank on the dense differential matrices."""
    n = c.dim
    ranks = [oracle_rank(differential_matrix(c, d)[0]) for d in range(n + 1)]
    return [comb(n, d) - ranks[d] - (ranks[d - 1] if d else 0)
            for d in range(n + 1)]


def filiform(n):
    """The standard filiform algebra [e1, ei] = e_{i+1}."""
    return LieAlgebra("filiform:%d" % n, n,
                      {(1, i): {i + 1: Fraction(1)} for i in range(2, n)})


def oracle_algebras():
    return ([e.algebra() for e in parse_catalog_file(BUNDLED_CATALOG)]
            + [filiform(n) for n in range(4, 9)])


def test_betti_invariant_under_change_of_basis_and_matches_oracle():
    # Basis changes fill the differential with non-unit fractions, which
    # the fixtures alone do not.
    rng = random.Random(61)
    for g in oracle_algebras():
        expected = betti(g)
        for _ in range(20):
            c = build_complex(change_basis(g, random_invertible(rng, g.dim)))
            assert list(betti_numbers(c)) == expected
            assert oracle_betti(c) == expected


def test_leibniz_images_are_the_scaled_differential():
    # Every monomial of every degree, on basis changes whose differentials
    # carry non-unit fractions, so the common scale is exercised; the
    # expected images come from the graded-derivation oracle.
    rng = random.Random(62)
    scales = set()
    for g in oracle_algebras():
        for _ in range(3):
            c = build_complex(change_basis(g, random_invertible(rng, g.dim)))
            n = c.dim
            scales.add(c.scale)
            for p in range(n + 1):
                images = c.images(p)
                assert list(images) == degree_monomials(n, p)
                matrix, domain, codomain = differential_matrix(c, p)
                for col, (mask, image) in enumerate(images.items()):
                    assert all(type(v) is int and v for v in image.values())
                    expected = oracle_differential(c, Multivector(n, {mask: 1}))
                    assert Multivector(n, image) == combine((c.scale, expected))
                    # the dense matrix is that of scale * d, in ints
                    column = [row[col] for row in matrix]
                    assert all(type(x) is int for x in column)
                    assert column == [c.scale * expected.terms.get(m, 0)
                                      for m in codomain]
    assert max(scales) > 1


def test_differential_matches_oracle_on_mixed_degree_forms():
    # The images are built on first use, so the order in which degrees are
    # first asked for must not matter: top degree first (every degree at
    # once), Betti first (the low half), or the forms themselves first.
    rng = random.Random(65)
    for g in oracle_algebras():
        for warm in ("top", "betti", "cold"):
            c = build_complex(change_basis(g, random_invertible(rng, g.dim)))
            n = c.dim
            if warm == "top":
                c.differential(Multivector(n, {(1 << n) - 1: 1}))
            elif warm == "betti":
                betti_numbers(c)
            for _ in range(10):
                f = random_multivector(rng, n, nterms=6)
                assert c.differential(f) == oracle_differential(c, f)


def test_one_complex_per_algebra_object():
    rng = random.Random(66)
    g = builtin("g13457C")
    c = build_complex(g)
    assert build_complex(g) is c
    # change_basis keeps the name, so a complex keyed by name would be wrong
    h = change_basis(g, random_invertible(rng, g.dim))
    assert h.name == g.name
    assert build_complex(h) is not c
    assert build_complex(h) is build_complex(h)
    assert build_complex(builtin("g13457C")) is not c


def test_unbound_family_raises_the_same_error_every_call():
    # The family is refused where it is bound, before build_complex or the
    # Jacobi check could see it, and with the same text on every call.
    (entry,) = parse_catalog("algebra fam\ndim 3\nparam lambda\n"
                             "bracket [1,2] = lambda*e3\nend\n")
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            build_complex(entry.algebra())
        assert str(err.value) == "parameter 'lambda' is unbound"
        with pytest.raises(ValueError) as err:
            jacobi_violation(entry.algebra())
        assert str(err.value) == "parameter 'lambda' is unbound"
    assert jacobi_violation(entry.algebra({"lambda": 1})) is None


def r2():
    """The non-abelian 2-dimensional algebra [e1, e2] = e2."""
    return LieAlgebra("r2", 2, {(1, 2): {2: 1}})


def test_betti_non_unimodular_ranks_every_degree():
    # Duality would mirror the ranks and get all three wrong.
    line = builtin("abelian:1")
    cases = [
        (r2(), [1, 1, 0]),
        (LieAlgebra("r3", 3, {(1, 2): {2: 1}, (1, 3): {3: 1}}), [1, 1, 0, 0]),
        (direct_product(direct_product(r2(), line), line), [1, 3, 3, 1, 0]),
    ]
    rng = random.Random(64)
    for g, expected in cases:
        assert not is_unimodular(g)
        assert betti(g) == oracle_betti(build_complex(g)) == expected
        for _ in range(5):
            h = change_basis(g, random_invertible(rng, g.dim))
            assert not is_unimodular(h)
            assert betti(h) == oracle_betti(build_complex(h)) == expected


def test_betti_unimodular_but_not_nilpotent_uses_duality():
    e2 = LieAlgebra("e(2)", 3, {(1, 3): {2: -1}, (2, 3): {1: 1}})
    sl2 = LieAlgebra("sl2", 3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    for g, expected in ((e2, [1, 1, 1, 1]), (sl2, [1, 0, 0, 1])):
        assert is_unimodular(g)
        assert betti(g) == oracle_betti(build_complex(g)) == expected


def test_unimodular_iff_d_vanishes_on_degree_n_minus_1():
    # d: degree n-1 -> degree n is dual to x -> tr ad_x, for any bracket.
    rng = random.Random(63)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 10:
        dim = rng.randint(2, 5)
        brackets = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, dim - 1)
            j = rng.randint(i + 1, dim)
            brackets.setdefault((i, j), {})[rng.randint(1, dim)] = rnd_nonzero_fraction(rng)
        g = LieAlgebra("rand", dim, brackets)
        for h in (g, change_basis(g, random_invertible(rng, dim))):
            c = build_complex(h)
            closed = all(not c.differential(Multivector(dim, {m: 1}))
                         for m in degree_monomials(dim, dim - 1))
            assert is_unimodular(h) == closed
            seen[closed] += 1


def test_betti_heisenberg_closed_form():
    # b_p = C(2k,p) - C(2k,p-2) for p <= k, mirrored for p > k
    for k in range(1, 7):
        half = [comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0)
                for p in range(k + 1)]
        assert betti(builtin("heisenberg:%d" % (2 * k + 1))) == half + half[::-1]


def test_betti_kunneth_with_a_line():
    # b_p(g x a) = b_p(g) + b_{p-1}(g)
    for name in ("heisenberg:13", "abelian:12"):
        g = builtin(name)
        b = betti(g) + [0]
        expected = [b[p] + (b[p - 1] if p else 0) for p in range(g.dim + 2)]
        assert betti(direct_product(g, builtin("abelian:1"))) == expected


def test_betti_rejects_non_complexes():
    with pytest.raises(ValueError) as err:
        betti_numbers(build_complex(jacobi_violator()))
    assert str(err.value) == ("the Betti computation requires the Jacobi "
                              "identity; violated at (1, 2, 3) in violator")


def test_betti_budget_is_checked_before_any_degree_is_built(monkeypatch):
    # heisenberg:7 ranks degrees 0..3; degree 3 has C(7, 3) = 35 monomials.
    # The Jacobi check has built degrees up to 2, and no more are built.
    expected = betti_numbers(build_complex(builtin("heisenberg:7")))
    c = build_complex(builtin("heisenberg:7"))
    monkeypatch.setattr(cecomplex, "BETTI_BUDGET", 34)
    with pytest.raises(ValueError) as err:
        betti_numbers(c)
    assert str(err.value) == ("Betti degree 3 of heisenberg:7 has 35 monomials, "
                              "over the budget of 34")
    assert c._images.keys() == {0, 1, 2}
    monkeypatch.setattr(cecomplex, "BETTI_BUDGET", 35)
    assert betti_numbers(c) == expected


def test_report_invariants_hold():
    # b_p = dim Z^p - dim B^p with B^p inside Z^p inside the C(n, p) cochains
    for name in BUNDLED:
        b = betti_numbers(build_complex(builtin(name)))
        assert all(0 <= x <= comb(len(b) - 1, p) for p, x in enumerate(b))


def test_d_squared_zero_on_random_multivectors():
    rng = random.Random(52)
    for name in BUNDLED:
        c = build_complex(builtin(name))
        for _ in range(100):
            f = random_multivector(rng, c.dim, nterms=3)
            assert c.differential(c.differential(f)).is_zero()


def test_graded_leibniz_rule():
    rng = random.Random(53)
    for name in ("heisenberg:5", "g13457C", "abelian:4"):
        c = build_complex(builtin(name))
        for _ in range(30):
            p = rng.randint(0, c.dim)
            q = rng.randint(0, c.dim)
            a = random_multivector(rng, c.dim, nterms=3, degrees=[p])
            b = random_multivector(rng, c.dim, nterms=3, degrees=[q])
            lhs = c.differential(wedge(a, b))
            sign = -1 if p % 2 else 1
            rhs = combine((1, wedge(c.differential(a), b)),
                          (sign, wedge(a, c.differential(b))))
            assert lhs == rhs


def test_euler_characteristic_vanishes():
    for name in BUNDLED:
        b = betti_numbers(build_complex(builtin(name)))
        assert sum((-1) ** p * x for p, x in enumerate(b)) == 0


def test_poincare_duality_for_nilpotent():
    for name in BUNDLED:
        b = betti_numbers(build_complex(builtin(name)))
        assert b == b[::-1]


def times_a(g, k):
    return direct_product(g, builtin("abelian:%d" % k))


def cocycle_algebras():
    """The oracle algebras, g x a^k for k = 1..3 on small g, and seeded
    basis changes of them, whose differentials are dense."""
    rng = random.Random(66)
    base = oracle_algebras()
    small = [builtin("heisenberg:3"), builtin("heisenberg:5"), filiform(4),
             filiform(5)]
    products = [times_a(g, k) for g in small for k in (1, 2, 3)]
    hidden = [change_basis(g, random_invertible(rng, g.dim))
              for g in base + products[:6]]
    return base + products + hidden


def test_cocycle_basis_matches_oracle_in_every_degree():
    # The same vectors in the same order as the full-row elimination.
    for g in cocycle_algebras():
        c = build_complex(g)
        for p in range(g.dim + 1):
            assert cocycle_basis(c, p) == oracle_cocycle_basis(c, p), (g.name, p)


def lex_key(form):
    """The index tuple of a form's last monomial in lex order."""
    return max(indices_of(m) for m in form.terms)


def test_z2_of_g_times_a_is_z2_of_g_and_z1_of_g_wedge_y():
    rng = random.Random(67)
    for dim in (3, 4, 5, 5, 6, 6, 7):
        g = random_nilpotent(rng, dim)
        assert jacobi_violation(g) is None
        c, n = build_complex(g), g.dim
        y = Multivector(n + 1, {1 << n: 1})
        parts = [Multivector(n + 1, beta.terms) for beta in cocycle_basis(c, 2)]
        parts += [wedge(Multivector(n + 1, theta.terms), y)
                  for theta in cocycle_basis(c, 1)]
        ga = build_complex(times_a(g, 1))
        assert cocycle_basis(ga, 2) == sorted(parts, key=lex_key)
