import random
from fractions import Fraction

import pytest

from nilsym import (LieAlgebra, MPoly, builtin, direct_product, jacobi_violation,
                    parse_catalog, upper_central_series)
from helpers import (change_basis, identity, oracle_jacobi_violation, oracle_ucs,
                     random_invertible, rnd_nonzero_fraction)


def jacobi_violator():
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1; the cyclic sum at (1,2,3) is e3."""
    return LieAlgebra("violator", 3, {
        (1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: -1}})


def test_jacobi_heisenberg5():
    assert jacobi_violation(builtin("heisenberg:5")) is None


def test_jacobi_abelian():
    assert jacobi_violation(builtin("abelian:5")) is None


def test_jacobi_violator_reports_first_triple():
    assert jacobi_violation(jacobi_violator()) == (1, 2, 3)


def random_maybe_jacobi_algebra(rng):
    """A two-step nilpotent algebra (brackets of e_1..e_p land in the centre
    e_{p+1}..e_n, so Jacobi holds) plus, some of the time, a few stray
    brackets anywhere, which often break Jacobi at a triple that varies."""
    dim = rng.randint(1, 8)
    p = rng.randint(0, dim)
    brackets = {}
    if p < dim:
        for i in range(1, p + 1):
            for j in range(i + 1, p + 1):
                if rng.random() < 0.5:
                    brackets[(i, j)] = {k: rng.choice((-2, -1, 1, 3))
                                        for k in rng.sample(range(p + 1, dim + 1),
                                                            rng.randint(1, dim - p))}
    if dim >= 3 and rng.random() < 0.8:
        for _ in range(rng.randint(2, 4)):
            i, j = sorted(rng.sample(range(1, dim + 1), 2))
            brackets.setdefault((i, j), {})[rng.randint(1, dim)] = rng.choice((-1, 1, 2))
    return LieAlgebra("rand", dim, brackets)


def test_jacobi_violation_matches_triple_loop_oracle():
    rng = random.Random(4077)
    violating = 0
    for _ in range(1200):
        g = random_maybe_jacobi_algebra(rng)
        expected = oracle_jacobi_violation(g)
        assert jacobi_violation(g) == expected
        violating += expected is not None
    assert 400 <= violating <= 800


def test_lie_algebra_rejects_parameter_dependent_coefficients():
    # A family is bound by CatalogEntry.algebra; an algebra is rational.
    lam = MPoly(1, {(0,): 1})
    with pytest.raises(ValueError) as err:
        LieAlgebra("fam", 3, {(1, 2): {3: MPoly(1, {(0,): 1})}})
    assert str(err.value) == ("bracket [1,2] depends on a parameter; bind it "
                              "with CatalogEntry.algebra")
    with pytest.raises(ValueError, match=r"bracket \[1,3\] depends"):
        LieAlgebra("fam", 3, {(3, 1): {2: 1, 3: 2 * lam - 1}})
    # a polynomial whose parameter terms cancel is its constant
    g = LieAlgebra("g", 3, {(1, 2): {3: 1 + lam - lam}})
    assert g.brackets == {(1, 2): {3: Fraction(1)}}


def family_147E_like():
    """A one-parameter toy family: [e1,e2] = lambda*e3 with lambda != 0."""
    (entry,) = parse_catalog("algebra family\ndim 3\nparam lambda exclude {0}\n"
                             "bracket [1,2] = lambda*e3\nend\n")
    return entry


def test_jacobi_violation_unbound_parameter_message():
    # The unbound family is refused before any Jacobi check can see it;
    # bound, it is an ordinary rational algebra the check accepts.
    with pytest.raises(ValueError) as err:
        jacobi_violation(family_147E_like().algebra())
    assert str(err.value) == "parameter 'lambda' is unbound"
    assert jacobi_violation(family_147E_like().algebra({"lambda": 2})) is None


def test_instantiate_unbound_parameter_rejected():
    entry = family_147E_like()
    with pytest.raises(ValueError, match="parameter 'lambda' is unbound"):
        entry.algebra({})
    with pytest.raises(ValueError, match="depends on a parameter"):
        LieAlgebra("family", 3, entry.brackets)  # no way round the binding


def test_parametric_algebras_refuse_structural_ops():
    # A parametric algebra cannot be built, so change_basis and the central
    # series only ever see a bound one.
    entry = family_147E_like()
    with pytest.raises(ValueError, match=r"bracket \[1,2\] depends"):
        LieAlgebra("family", 3, entry.brackets)
    g = entry.algebra({"lambda": Fraction(1, 2)})
    assert change_basis(g, identity(3)) == g
    assert upper_central_series(g).dims == (1, 3)


def test_bracket_antisymmetry_synthesized():
    h5 = builtin("heisenberg:5")
    assert h5.bracket_basis(2, 3) == {1: 1}
    assert h5.bracket_basis(3, 2) == {1: -1}
    assert h5.bracket_basis(2, 2) == {}


def test_constructor_normalizes_reversed_keys():
    g = LieAlgebra("g", 3, {(3, 2): {1: 1}})
    assert g.brackets == {(2, 3): {1: Fraction(-1)}}


def test_constructor_rejects_a_dimension_over_the_limit():
    with pytest.raises(ValueError, match="limit of 64"):
        LieAlgebra("g", 65)
    assert LieAlgebra("g", 64).dim == 64


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        LieAlgebra("g", 3, {(1, 1): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra("g", 3, {(1, 4): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra("g", 3, {(1, 2): {4: 1}})


def test_ucs_heisenberg5():
    ucs = upper_central_series(builtin("heisenberg:5"))
    assert ucs.dims == (1, 5)
    assert len(ucs.dims) == 2
    assert ucs.is_nilpotent


def test_ucs_abelian():
    ucs = upper_central_series(builtin("abelian:5"))
    assert ucs.dims == (5,)
    assert len(ucs.dims) == 1


def test_ucs_g13457C_matches_its_name():
    assert upper_central_series(builtin("g13457C")).dims == (1, 3, 4, 5, 7)


def test_ucs_flags_non_nilpotent():
    # sl2-like: [e1,e2]=2e2, [e1,e3]=-2e3, [e2,e3]=e1 has trivial center
    g = LieAlgebra("sl2", 3, {
        (1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    assert jacobi_violation(g) is None
    ucs = upper_central_series(g)
    assert not ucs.is_nilpotent
    assert ucs.dims == (0,)


def test_direct_product_heisenberg_times_a():
    h5 = builtin("heisenberg:5")
    prod = direct_product(h5, builtin("abelian:1"))
    assert prod.dim == 6
    assert prod.brackets == h5.brackets
    assert prod.dual_labels[-1] == "y"
    assert upper_central_series(prod).dims == (2, 6)


def test_direct_product_of_abelians_is_abelian():
    prod = direct_product(builtin("abelian:2"), builtin("abelian:3"))
    assert prod == builtin("abelian:5")


def test_direct_product_blocks_and_labels():
    g = builtin("heisenberg:3")
    h = builtin("g13457C")
    prod = direct_product(g, h)
    assert prod.dim == 10
    assert prod.bracket_basis(2, 3) == {1: 1}
    assert prod.bracket_basis(4, 5) == {6: 1}  # h's [1,2]=e3 shifted by 3
    assert prod.dual_labels[3:] == tuple("y%d" % i for i in range(1, 8))
    assert jacobi_violation(prod) is None


def test_change_basis_identity_is_equal():
    h5 = builtin("heisenberg:5")
    assert change_basis(h5, identity(5)) == h5


def test_change_basis_swap_generators():
    h5 = builtin("heisenberg:5")
    t = identity(5)
    t[1], t[2] = t[2], t[1]  # swap e2 and e3
    g = change_basis(h5, t)
    assert g.brackets == {(2, 3): {1: Fraction(-1)}, (4, 5): {1: Fraction(1)}}


def test_change_basis_scaling_transports_constants():
    h5 = builtin("heisenberg:5")
    t = identity(5)
    t[0][0] = Fraction(2)  # e1 -> 2 e1
    g = change_basis(h5, t)
    assert g.bracket_basis(2, 3) == {1: Fraction(1, 2)}
    assert g.bracket_basis(4, 5) == {1: Fraction(1, 2)}
    assert jacobi_violation(g) is None
    assert upper_central_series(g).dims == (1, 5)


def test_change_basis_singular_rejected():
    with pytest.raises(ValueError):
        change_basis(builtin("heisenberg:5"),
                     [[Fraction(0)] * 5 for _ in range(5)])


def test_param_poly_arithmetic_and_eval():
    lam = MPoly(1, {(0,): 1})
    p = 2 * lam - 1
    assert isinstance(p, MPoly)
    assert p.evaluate([Fraction(1, 2)]) == 0
    assert p.evaluate([Fraction(2)]) == 3
    assert (lam * lam).evaluate([Fraction(3)]) == 9
    assert (p - p).is_zero
    assert (1 - lam).evaluate([Fraction(4)]) == -3


def test_jacobi_invariant_under_change_of_basis():
    rng = random.Random(41)
    for g in (builtin("heisenberg:5"), builtin("g13457C"), jacobi_violator()):
        expected = jacobi_violation(g) is None
        for _ in range(5):
            t = random_invertible(rng, g.dim)
            assert (jacobi_violation(change_basis(g, t)) is None) == expected


def test_ucs_invariant_under_change_of_basis():
    rng = random.Random(42)
    for name in ("heisenberg:3", "heisenberg:5", "g13457C", "abelian:4"):
        g = builtin(name)
        dims = upper_central_series(g).dims
        for _ in range(5):
            t = random_invertible(rng, g.dim)
            assert upper_central_series(change_basis(g, t)).dims == dims


def random_bracket_table(rng, nilpotent):
    """Random brackets on dim 1-8.  With `nilpotent`, [e_i, e_j] (i < j)
    only reaches e_k with k > j, so the series climbs to dim in steps of
    varying size; otherwise targets are arbitrary and the table is mostly
    not nilpotent.  Jacobi is not required: the series is linear algebra
    on the table."""
    dim = rng.randint(1, 8)
    brackets = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            targets = range(j + 1, dim + 1) if nilpotent else range(1, dim + 1)
            if targets and rng.random() < 0.4:
                picked = rng.sample(targets, min(rng.randint(1, 2), len(targets)))
                brackets[(i, j)] = {k: rnd_nonzero_fraction(rng, 3, 3) for k in picked}
    return LieAlgebra("rand", dim, brackets)


def test_ucs_matches_dense_oracle():
    rng = random.Random(4078)
    lengths = set()
    not_nilpotent = 0
    for n in range(300):
        g = (random_bracket_table(rng, nilpotent=n % 3 != 0) if n % 4
             else random_maybe_jacobi_algebra(rng))
        expected = oracle_ucs(g)
        assert upper_central_series(g) == expected
        lengths.add(len(expected.dims))
        not_nilpotent += not expected.is_nilpotent
        h = change_basis(g, random_invertible(rng, g.dim))
        assert upper_central_series(h) == oracle_ucs(h) == expected
    assert not_nilpotent >= 50
    assert lengths >= {1, 2, 3, 4}


def test_product_of_nilpotents_is_nilpotent():
    pairs = [("heisenberg:3", "heisenberg:5"),
             ("abelian:2", "g13457C"),
             ("heisenberg:5", "abelian:1")]
    for a, b in pairs:
        prod = direct_product(builtin(a), builtin(b))
        assert upper_central_series(prod).is_nilpotent


def test_product_ucs_dims_are_pointwise_sums():
    # C_i(g x h) = C_i(g) + C_i(h), with stabilized factors capped at dim
    def saturated(dims, dim, length):
        seq = list(dims) + [dims[-1]] * (length - len(dims))
        return [min(x, dim) for x in seq]

    for a, b in (("heisenberg:3", "heisenberg:5"), ("abelian:2", "g13457C")):
        g, h = builtin(a), builtin(b)
        dg = upper_central_series(g).dims
        dh = upper_central_series(h).dims
        length = max(len(dg), len(dh))
        expected = tuple(x + y for x, y in zip(
            saturated(dg, g.dim, length), saturated(dh, h.dim, length)))
        assert upper_central_series(direct_product(g, h)).dims == expected
