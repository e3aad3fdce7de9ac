"""Acceptance suite: one test per criterion, exact assertions, stated time
budgets enforced.  Each criterion prints a single PASS/FAIL line (visible
with pytest -s, or on failure).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

from nilsym import (LieAlgebra, Multivector, betti_numbers, build_complex,
                    builtin, contact_decide, direct_product,
                    jacobi_violation, mask_of, pfaffian_polynomial, parse_form,
                    symplectic_decide, verify_claimed_form)
from nilsym import cli
from helpers import (change_basis, det, oracle_d_squared_vanishes,
                     oracle_jacobi_violation, random_invertible, rnd_fraction,
                     skew_gram_matrix, splice_line_witnesses)

BUNDLED = (["abelian:%d" % n for n in range(1, 7)]
           + ["heisenberg:%d" % n for n in (3, 5, 7)] + ["g13457C"])

CATALOG_DIR = Path(__file__).resolve().parent.parent / "catalogs"


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d FAIL  %s" % (number, description))
        raise
    print("ACCEPTANCE %d PASS  %s  (%.1fs)"
          % (number, description, time.perf_counter() - start))


def times_a(g):
    return direct_product(g, builtin("abelian:1"))


def mono(dim, *idxs):
    return Multivector(dim, {mask_of(idxs): 1})


def test_criterion_1_heisenberg_fixtures():
    with criterion(1, "Heisenberg symplectic/contact fixtures"):
        expected = {3: True, 5: False, 7: False}
        for n, admits in expected.items():
            start = time.perf_counter()
            assert symplectic_decide(times_a(builtin("heisenberg:%d" % n))
                                     ).admits == admits
            assert time.perf_counter() - start < 5.0
        for n in (3, 5, 7):
            start = time.perf_counter()
            h = builtin("heisenberg:%d" % n)
            verdict = contact_decide(h)
            assert verdict.admits
            assert verify_claimed_form(h, mono(n, 1), "contact").passed
            assert verdict.witness == mono(n, 1)
            assert time.perf_counter() - start < 5.0


def test_criterion_2_g13457C_fixture():
    with criterion(2, "(13457C) differentials and symplectic verdict"):
        start = time.perf_counter()
        g = builtin("g13457C")
        published = [
            Multivector(7), Multivector(7),
            mono(7, 1, 2), mono(7, 1, 3), mono(7, 1, 4),
            Multivector(7),
            mono(7, 1, 6) + mono(7, 2, 5) - mono(7, 3, 4)]
        actual = list(build_complex(g).generator_differentials)
        assert any(all(a == s * e for a, e in zip(actual, published))
                   for s in (1, -1))
        assert not symplectic_decide(times_a(g)).admits
        assert time.perf_counter() - start < 10.0


def test_criterion_3_classification_table_harness(tmp_path, capsys):
    with criterion(3, "classification-table rows verified on the bundled subset"):
        # the A5 row of the dimension-5 table verifies directly
        form = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
        assert verify_claimed_form(times_a(builtin("abelian:5")), form,
                                   "symplectic").passed
        # cmd_report re-verifies every bundled claimed form; rows for the
        # remaining table entries need user-transcribed structure constants
        # (documented in the README), so the shipped run covers the bundled
        # subset only.
        out_json = tmp_path / "report.json"
        code = cli.main(["report", str(CATALOG_DIR), "--json", str(out_json)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_json.read_text())
        checked = 0
        for row in payload["algebras"]:
            for claim in row.get("claimed_forms", ()):
                assert claim["passed"], (row["name"], claim)
                checked += 1
        assert checked >= 4  # A5 row + three Heisenberg contact forms


def test_criterion_4_pfaffian_squared_is_determinant():
    with criterion(4, "Pf^2 = det on fixtures and 20 basis changes"):
        start = time.perf_counter()
        rng = random.Random(104)
        bases = [builtin("abelian:4"), builtin("abelian:6"),
                 times_a(builtin("heisenberg:5")), times_a(builtin("g13457C"))]
        cases = list(bases)
        for g in bases:
            for _ in range(5):  # 20 basis-changed variants in total
                cases.append(change_basis(g, random_invertible(rng, g.dim)))
        for g in cases:
            p, basis = pfaffian_polynomial(g)
            for _ in range(50):
                point = [rnd_fraction(rng) for _ in range(len(basis))]
                omega = Multivector(g.dim)
                for t, b in zip(point, basis):
                    omega = omega + t * b
                assert p.evaluate(point) ** 2 == det(skew_gram_matrix(omega))
        assert time.perf_counter() - start < 60.0


def hand_built_violators():
    tables = [
        (3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: -1}}),
        (3, {(1, 2): {3: 2}, (2, 3): {1: 2}, (1, 3): {1: -1}}),
        (3, {(1, 2): {2: 1}, (2, 3): {3: 1}, (1, 3): {1: 1}}),
        (3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {3: 1}}),
        (4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {4: 1}, (2, 4): {1: 1}}),
        (4, {(1, 2): {3: 1}, (3, 4): {1: 1}, (1, 4): {2: 1}, (2, 3): {2: -1}}),
        (4, {(1, 2): {4: 1}, (1, 3): {1: 1}, (2, 3): {4: 1}}),
        (5, {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 3): {1: 1}, (4, 5): {1: 1},
             (1, 5): {1: 1}}),
        (5, {(1, 2): {3: 1}, (2, 3): {4: 1}, (3, 4): {5: 1}, (4, 5): {1: 1}}),
        (5, {(1, 2): {3: 1, 4: 1}, (2, 3): {5: 1}, (1, 5): {5: 1}}),
    ]
    return [LieAlgebra("violator%d" % i, dim, table)
            for i, (dim, table) in enumerate(tables)]


def test_criterion_5_d_squared_iff_jacobi():
    with criterion(5, "d^2 = 0 agrees with Jacobi everywhere"):
        rng = random.Random(105)
        cases = [builtin(name) for name in BUNDLED]
        for name in BUNDLED:  # 30 random basis changes across the builtins
            g = builtin(name)
            for _ in range(3):
                cases.append(change_basis(g, random_invertible(rng, g.dim)))
        violators = hand_built_violators()
        assert len(violators) == 10
        for g in violators:
            assert jacobi_violation(g) is not None
        cases.extend(violators)
        for g in cases:
            assert oracle_d_squared_vanishes(build_complex(g)) == \
                (jacobi_violation(g) is None)
            assert jacobi_violation(g) == oracle_jacobi_violation(g)


def test_criterion_6_cohomology_properties():
    with criterion(6, "Betti fixtures, Euler characteristic, duality"):
        start = time.perf_counter()
        for n in range(1, 9):
            b = betti_numbers(build_complex(builtin("abelian:%d" % n)))
            assert b == tuple(comb(n, i) for i in range(n + 1))
        assert betti_numbers(build_complex(builtin("heisenberg:3"))) == (1, 2, 2, 1)
        for name in BUNDLED:
            b = betti_numbers(build_complex(builtin(name)))
            assert sum((-1) ** i * x for i, x in enumerate(b)) == 0
            assert b == b[::-1]
        assert time.perf_counter() - start < 30.0


def test_criterion_7_verdicts_invariant_under_basis_change():
    with criterion(7, "admits booleans invariant under 5 basis changes each"):
        rng = random.Random(107)
        for name in BUNDLED:
            g = builtin(name)
            if g.dim % 2 == 0:
                expected_sym = symplectic_decide(g).admits
            else:
                expected_sym = symplectic_decide(times_a(g)).admits
                expected_con = contact_decide(g).admits
            for _ in range(5):
                gc = change_basis(g, random_invertible(rng, g.dim))
                if g.dim % 2 == 0:
                    assert symplectic_decide(gc).admits == expected_sym
                else:
                    assert symplectic_decide(times_a(gc)).admits == expected_sym
                    assert contact_decide(gc).admits == expected_con


def test_criterion_8_product_witness():
    with criterion(8, "product witness from two A5 rows is symplectic"):
        a5 = builtin("abelian:5")
        w = parse_form("x1^x2 + x3^x4 + x5^y", 5, has_y=True)
        spliced = splice_line_witnesses(w, 5)
        assert verify_claimed_form(direct_product(a5, a5), spliced,
                                   "symplectic").passed
        # same recipe on a decided Remark-shaped witness
        v = symplectic_decide(times_a(a5))
        assert v.admits
        spliced2 = splice_line_witnesses(v.witness, 5)
        assert verify_claimed_form(direct_product(a5, a5), spliced2,
                                   "symplectic").passed


def test_criterion_9_report_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical JSON across consecutive report runs"):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(["report", str(CATALOG_DIR), "--json", str(first)]) == 0
        assert cli.main(["report", str(CATALOG_DIR), "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


def test_criterion_10_heisenberg_family_times_a():
    with criterion(10, "heisenberg:2n+1 x a is not symplectic for n >= 2, "
                       "heisenberg:2n+1 is contact, n = 1..7"):
        start = time.perf_counter()
        for n in range(1, 8):
            h = builtin("heisenberg:%d" % (2 * n + 1))
            v = symplectic_decide(times_a(h))
            if n == 1:  # Kodaira-Thurston
                assert v.admits and v.certificate_kind == "witness"
                assert v.pfaffian_nvars == 5
            else:
                assert not v.admits and v.witness is None
                assert v.certificate_kind == "identically-zero-pfaffian"
                assert v.pfaffian_nvars == comb(2 * n + 1, 2)
            assert v.pfaffian_degree == n + 1
            assert contact_decide(h).admits
        assert time.perf_counter() - start < 10.0
