import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilsym import (builtin, cecomplex, cli, detect, direct_product, liealg,
                    symplectic_decide)
from helpers import filiform

ROOT = Path(__file__).resolve().parent.parent

VIOLATOR_CAT = """\
algebra badjacobi
dim 3
bracket [1,2] = e3
bracket [2,3] = e1
bracket [1,3] = -e1
end
"""

FAMILY_CAT = """\
algebra fam
dim 3
param lambda exclude {0}
bracket [1,2] = lambda*e3
end
"""


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_limited(*argv):
    """The CLI in a child with an address-space limit of 1 GB and a
    timeout, so that a missing guard fails with a MemoryError or a timeout
    instead of taking the machine's memory."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from nilsym.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", child, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_heisenberg5(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "heisenberg:5")
    assert code == 0
    assert "jacobi: yes" in out
    assert "ucs: 1,5" in out
    assert "betti: 1,4,5,5,4,1" in out


def test_check_abelian4(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "abelian:4")
    assert code == 0
    assert "betti: 1,4,6,4,1" in out


def test_check_jacobi_violation_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cat"
    path.write_text(VIOLATOR_CAT)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "jacobi: no" in out
    assert "(1,2,3)" in out


def test_check_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "dup.cat"
    path.write_text("algebra g\ndim 3\nbracket [1,2] = e3\n"
                    "bracket [1,2] = e3\nend\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "duplicate" in err


def test_symplectic_heisenberg5_times_a(capsys):
    code, out, _ = run(capsys, "symplectic", "--builtin", "heisenberg:5",
                       "--times-a")
    assert code == 1
    assert "symplectic: no" in out
    assert "Pfaffian ≡ 0" in out


def test_symplectic_abelian5_times_a(capsys):
    code, out, _ = run(capsys, "symplectic", "--builtin", "abelian:5",
                       "--times-a")
    assert code == 0
    assert "symplectic: yes" in out
    assert "witness: x1^y + x2^x5 + x3^x4" in out


def test_symplectic_g13457C_times_a(capsys):
    code, out, _ = run(capsys, "symplectic", "--builtin", "g13457C", "--times-a")
    assert code == 1
    assert "symplectic: no" in out


def test_symplectic_odd_dimension_exits_two(capsys):
    code, _, err = run(capsys, "symplectic", "--builtin", "heisenberg:5")
    assert code == 2
    assert "odd" in err
    assert "(try --times-a)" in err


def test_symplectic_times_a_on_even_dimension_suggests_dropping_it(capsys):
    code, out, err = run(capsys, "symplectic", "--builtin", "abelian:4",
                         "--times-a")
    assert code == 2
    assert out == ""
    assert err == ("error: dimension 5 is odd; symplectic needs an even "
                   "total dimension (drop --times-a)\n")


def test_contact_heisenberg7(capsys):
    code, out, _ = run(capsys, "contact", "--builtin", "heisenberg:7")
    assert code == 0
    assert "contact: yes" in out
    assert "witness: x1" in out


def test_contact_abelian5(capsys):
    code, out, _ = run(capsys, "contact", "--builtin", "abelian:5")
    assert code == 1
    assert "contact: no" in out


def test_contact_g13457C(capsys):
    code, out, _ = run(capsys, "contact", "--builtin", "g13457C")
    assert code == 0
    assert "witness: x7" in out


def test_contact_even_dimension_exits_two(capsys):
    code, _, err = run(capsys, "contact", "--builtin", "abelian:4")
    assert code == 2


def test_verify_form_pass(capsys):
    code, out, _ = run(capsys, "verify-form", "--builtin", "abelian:5",
                       "--form", "x1^x2 + x3^x4 + x5^y",
                       "--kind", "symplectic", "--times-a")
    assert code == 0
    assert "closed: yes" in out
    assert "nondegenerate: yes" in out
    assert "result: pass" in out


def test_verify_form_fails_closedness(capsys):
    code, out, _ = run(capsys, "verify-form", "--builtin", "heisenberg:5",
                       "--form", "x1^x2 + x3^x4 + x5^y",
                       "--kind", "symplectic", "--times-a")
    assert code == 1
    assert "closed: no" in out
    assert "result: fail: closed" in out


def test_verify_form_contact(capsys):
    code, out, _ = run(capsys, "verify-form", "--builtin", "heisenberg:7",
                       "--form", "x1", "--kind", "contact")
    assert code == 0
    assert "result: pass" in out


def test_verify_form_contact_in_dimension_one_exits_two(capsys):
    code, _, err = run(capsys, "verify-form", "--builtin", "abelian:1",
                       "--form", "x1", "--kind", "contact")
    assert code == 2
    assert "one-dimensional" in err


def test_verify_form_bad_index_exits_two(capsys):
    code, _, err = run(capsys, "verify-form", "--builtin", "g13457C",
                       "--form", "x9^x1", "--kind", "symplectic", "--times-a")
    assert code == 2


def test_param_binding_through_cli(tmp_path, capsys):
    path = tmp_path / "fam.cat"
    path.write_text(FAMILY_CAT)
    code, out, _ = run(capsys, "check", str(path), "--param", "lambda=1/2")
    assert code == 0
    assert "jacobi: yes" in out
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "unbound" in err
    code, _, err = run(capsys, "check", str(path), "--param", "lambda=0")
    assert code == 2
    assert "excluded" in err


def test_param_on_a_builtin_is_an_unknown_parameter(capsys):
    code, out, err = run(capsys, "check", "--builtin", "heisenberg:5",
                         "--param", "lambda=1")
    assert code == 2
    assert out == ""
    assert err == "error: unknown parameter 'lambda'\n"


def test_param_binds_only_the_entries_that_declare_it(tmp_path, capsys):
    path = tmp_path / "mixed.cat"
    path.write_text(FAMILY_CAT + "\nalgebra h3\ndim 3\nbracket [1,2] = e3\nend\n")
    code, out, _ = run(capsys, "check", str(path), "--param", "lambda=1")
    assert code == 0
    assert "algebra: fam" in out and "algebra: h3" in out
    assert out.count("jacobi: yes") == 2
    for argv, err_text in (
            (("--param", "mu=1"), "error: unknown parameter 'mu'\n"),
            (("--name", "h3", "--param", "lambda=1"),
             "error: unknown parameter 'lambda'\n"),
            ((), "error: parameter 'lambda' is unbound\n")):
        code, out, err = run(capsys, "check", str(path), *argv)
        assert (code, out, err) == (2, "", err_text), argv


def test_param_value_is_a_catalog_rational(tmp_path, capsys):
    path = tmp_path / "fam.cat"
    path.write_text(FAMILY_CAT)
    # Fraction() would take 1e100000000 as a number and build it
    for value in ("1e100000000", "0.25", "1/0", "7" * 4301):
        code, _, err = run(capsys, "check", str(path), "--param",
                           "lambda=" + value)
        assert code == 2
        assert err.startswith("error: --param lambda: ")
    code, out, _ = run(capsys, "check", str(path), "--param", "lambda= 1/2 ")
    assert code == 0 and "jacobi: yes" in out


def test_param_given_twice_is_refused(tmp_path, capsys):
    # Taking the last value would answer yes for lambda=0, lambda=1 and no
    # for the reverse order; neither is the obvious reading.
    path = tmp_path / "fam.cat"
    path.write_text(FAMILY_CAT.replace(" exclude {0}", ""))
    for values in (("0", "1"), ("1", "0"), ("1", "1"), ("1", " 1")):
        argv = [a for v in values for a in ("--param", "lambda=" + v)]
        code, out, err = run(capsys, "contact", str(path), *argv)
        assert (code, out, err) == (2, "", "error: --param lambda given twice\n"), values
    code, out, _ = run(capsys, "contact", str(path), "--param", "lambda=1")
    assert code == 0 and "contact: yes" in out


def test_builtin_size_must_be_decimal_digits(capsys):
    # "²".isdigit() holds but int("²") raises; the size check names the
    # builtin instead of letting int()'s message out.
    for name in ("abelian:²", "heisenberg:³"):
        kind = name.partition(":")[0]
        code, out, err = run(capsys, "check", "--builtin", name)
        assert (code, out) == (2, "")
        assert err == "error: builtin %r needs a size, e.g. %s:5\n" % (name, kind)


def test_catalog_selection_by_name(tmp_path, capsys):
    path = tmp_path / "two.cat"
    path.write_text("algebra one\ndim 2\nend\n\nalgebra two\ndim 3\n"
                    "bracket [1,2] = e3\nend\n")
    code, out, _ = run(capsys, "check", str(path), "--name", "two")
    assert code == 0
    assert "algebra: two" in out
    code, _, err = run(capsys, "symplectic", str(path))
    assert code == 2
    assert "--name" in err


@pytest.mark.parametrize("command", [["symplectic"], ["contact"],
                                     ["verify-form", "--kind", "contact",
                                      "--form", "x1"]],
                         ids=["symplectic", "contact", "verify-form"])
def test_empty_catalog_says_it_holds_no_algebras(tmp_path, capsys, command):
    path = tmp_path / "empty.cat"
    path.write_text("# no algebras\n")
    code, _, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert err == "error: catalog %s holds no algebras\n" % path


def test_report_over_exported_builtins(tmp_path, capsys):
    text = ("algebra h5\ndim 5\nbracket [2,3] = e1\nbracket [4,5] = e1\nend\n\n"
            "algebra a4\ndim 4\nend\n\n"
            "algebra h3\ndim 3\nbracket [2,3] = e1\nend\n")
    (tmp_path / "three.cat").write_text(text)
    out_json = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", str(tmp_path), "--json", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    names = [row["name"] for row in payload["algebras"]]
    assert names == ["h3", "a4", "h5"]  # ordered by (dim, name)
    assert payload["errors"] == []
    assert all(row["jacobi"] for row in payload["algebras"])


def test_report_flags_violator_and_exits_two(tmp_path, capsys):
    (tmp_path / "bad.cat").write_text(VIOLATOR_CAT)
    (tmp_path / "ok.cat").write_text("algebra a2\ndim 2\nend\n")
    code, out, _ = run(capsys, "report", str(tmp_path))
    assert code == 2
    assert "jacobi=no" in out


def test_report_empty_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "report", str(tmp_path))
    assert code == 0


def test_report_collects_parse_errors(tmp_path, capsys):
    (tmp_path / "broken.cat").write_text("algebra g\ndim 0\nend\n")
    code, _, err = run(capsys, "report", str(tmp_path))
    assert code == 2
    assert "broken.cat" in err


def test_report_lists_file_errors_before_entry_errors(tmp_path, capsys):
    # Files are read one at a time, so an entry error in a.cat is found
    # before the parse error of b.cat; the parse error is still listed first.
    (tmp_path / "a.cat").write_text(FAMILY_CAT)
    (tmp_path / "b.cat").write_text("algebra g\ndim 0\nend\n")
    (tmp_path / "c.cat").write_text(FAMILY_CAT.replace("fam", "fam2")
                                    + "algebra h3\ndim 3\nbracket [2,3] = e1\nend\n")
    out_json = tmp_path / "report.json"
    code, _, _ = run(capsys, "report", str(tmp_path), "--json", str(out_json))
    assert code == 2
    payload = json.loads(out_json.read_text())
    assert [row["name"] for row in payload["algebras"]] == ["h3"]
    assert [(e["file"], e.get("entry")) for e in payload["errors"]] == [
        ("b.cat", None), ("a.cat", "fam"), ("c.cat", "fam2")]


def test_report_over_the_betti_budget_is_an_error_row(tmp_path):
    (tmp_path / "mixed.cat").write_text(
        "algebra big\ndim 30\nend\n\n"
        "algebra h5\ndim 5\nbracket [2,3] = e1\nbracket [4,5] = e1\nend\n")
    proc = run_limited("report", str(tmp_path), "--json", "-")
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout[proc.stdout.index("\n{\n") + 1:])
    assert [row["name"] for row in payload["algebras"]] == ["h5"]
    assert payload["errors"] == [{
        "entry": "big", "file": "mixed.cat",
        "error": "Betti degree 4 of big has 27405 monomials, over the budget "
                 "of %d" % cecomplex.BETTI_BUDGET}]


def test_report_lambda_power_over_limit_is_an_error_row(tmp_path, capsys):
    (tmp_path / "big.cat").write_text(
        "algebra g\ndim 3\nparam lambda\nbracket [1,2] = lambda^65*e3\nend\n")
    (tmp_path / "ok.cat").write_text("algebra a2\ndim 2\nend\n")
    out_json = tmp_path / "report.json"
    code, _, _ = run(capsys, "report", str(tmp_path), "--json", str(out_json))
    assert code == 2
    payload = json.loads(out_json.read_text())
    assert [row["name"] for row in payload["algebras"]] == ["a2"]
    [error] = payload["errors"]
    assert error["file"] == "big.cat"
    assert error["error"].startswith("line 4, column 17: ")


def test_report_unbound_family_is_an_error_row(tmp_path, capsys):
    (tmp_path / "fam.cat").write_text(FAMILY_CAT)
    (tmp_path / "ok.cat").write_text("algebra a2\ndim 2\nend\n")
    out_json = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", str(tmp_path), "--json", str(out_json))
    assert code == 2
    assert "a2" in out
    payload = json.loads(out_json.read_text())
    assert [row["name"] for row in payload["algebras"]] == ["a2"]
    assert payload["errors"] == [{"file": "fam.cat", "entry": "fam",
                                  "error": "parameter 'lambda' is unbound"}]


def test_report_number_over_the_int_digit_limit_is_an_error_row(tmp_path, capsys):
    (tmp_path / "long.cat").write_text(
        "algebra g\ndim 3\nbracket [1,2] = %s*e3\nend\n" % ("7" * 4301))
    (tmp_path / "h3.cat").write_text(
        "algebra h3\ndim 3\nbracket [2,3] = e1\nend\n")
    out_json = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", str(tmp_path), "--json", str(out_json))
    assert code == 2
    assert "h3" in out
    payload = json.loads(out_json.read_text())
    assert [row["name"] for row in payload["algebras"]] == ["h3"]
    [error] = payload["errors"]
    assert error["file"] == "long.cat"
    assert error["error"] == ("line 3, column 17: integer of 4301 digits "
                              "is over the limit of 4300")


def test_report_dim_over_the_limit_is_an_error_row(tmp_path):
    # At 10^11 dimensions a label tuple alone would exhaust memory, so the
    # run gets an address-space limit of 1 GB and a timeout: an unguarded
    # build fails with a MemoryError instead of taking the machine's memory.
    (tmp_path / "mixed.cat").write_text(
        "algebra big\ndim 99999999999\nend\n\n"
        "algebra h5\ndim 5\nbracket [2,3] = e1\nbracket [4,5] = e1\nend\n")
    proc = run_limited("report", str(tmp_path), "--json", "-")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout[proc.stdout.index("\n{\n") + 1:])
    assert [row["name"] for row in payload["algebras"]] == ["h5"]
    assert payload["errors"] == [{
        "entry": "big", "file": "mixed.cat",
        "error": "dimension 99999999999 is over the limit of 64"}]


def test_report_json_deterministic(tmp_path, capsys):
    (tmp_path / "cats").mkdir()
    (tmp_path / "cats" / "a.cat").write_text(
        "algebra h3\ndim 3\nbracket [2,3] = e1\nform contact \"x1\"\nend\n")
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert run(capsys, "report", str(tmp_path / "cats"), "--json", str(first))[0] == 0
    assert run(capsys, "report", str(tmp_path / "cats"), "--json", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_report_times_rows_that_share_a_name(tmp_path, capsys, monkeypatch):
    # Names are unique only within one file; each row keeps its own time.
    for fname in ("a.cat", "b.cat"):
        (tmp_path / fname).write_text(
            "algebra h3\ndim 3\nbracket [2,3] = e1\nend\n")
    analyze = cli._analyze
    times = iter([7, 8])

    def timed(g, entry, *args, **kwargs):
        row, _ = analyze(g, entry, *args, **kwargs)
        return row, next(times)

    monkeypatch.setattr(cli, "_analyze", timed)
    code, out, _ = run(capsys, "report", str(tmp_path))
    assert code == 0
    assert "time=7ms" in out
    assert "time=8ms" in out


def test_report_contact_form_in_dimension_one_fails(tmp_path, capsys):
    (tmp_path / "line.cat").write_text(
        'algebra line\ndim 1\nform contact "x1"\nend\n')
    out_json = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", str(tmp_path), "--json", str(out_json))
    assert code == 2
    assert "contact=no" in out
    assert "forms=0/1 pass" in out
    [row] = json.loads(out_json.read_text())["algebras"]
    [form] = row["claimed_forms"]
    assert form["passed"] is False
    assert "one-dimensional" in form["error"]


def test_json_output_for_single_algebra(tmp_path, capsys):
    out_json = tmp_path / "h5.json"
    code, _, _ = run(capsys, "symplectic", "--builtin", "heisenberg:5",
                     "--times-a", "--json", str(out_json))
    assert code == 1
    payload = json.loads(out_json.read_text())
    assert payload["symplectic"]["admits"] is False
    assert payload["symplectic"]["certificate"] == "identically-zero-pfaffian"
    assert payload["symplectic"]["pfaffian_nvars"] == 10


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run(capsys, "check", "--builtin", "nope:3")
    assert code == 2


def test_oversized_builtin_is_an_error_line(capsys):
    code, out, err = run(capsys, "check", "--builtin", "abelian:99999999999999999999")
    assert code == 2
    assert out == ""
    assert err == "error: builtin abelian size must be <= 64, got 99999999999999999999\n"
    code, _, err = run(capsys, "check", "--builtin", "heisenberg:65")
    assert code == 2
    assert "<= 64" in err
    assert builtin("abelian:64").dim == 64


def test_check_over_the_betti_budget_is_an_error_line():
    # Betti numbers of abelian:64 would enumerate C(64, p) monomials per
    # degree; the budget stops the command before it builds degree 3.
    proc = run_limited("check", "--builtin", "abelian:64")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: Betti degree 3 of abelian:64 has 41664 "
                           "monomials, over the budget of %d\n"
                           % cecomplex.BETTI_BUDGET)


def test_symplectic_over_the_cocycle_budget_is_an_error_line():
    # Z^2 of abelian:64 is the kernel of a dense 41664 x 2016 matrix, which
    # ended in a MemoryError under this limit; the budget refuses it before
    # building anything.
    proc = run_limited("symplectic", "--builtin", "abelian:64")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: the degree-2 differential of abelian:64 is a "
                           "41664 x 2016 matrix, over the budget of %d entries\n"
                           % cecomplex.COCYCLE_BUDGET)


def test_cocycle_budget_admits_the_largest_decided_products():
    # heisenberg:15 x a (the paper's largest Heisenberg case) and
    # filiform:13 x a, decided on g and on the product built whole.
    line = builtin("abelian:1")
    for g, admits in ((builtin("heisenberg:15"), False), (filiform(13), True)):
        verdict = symplectic_decide(g, times_a=True)
        assert verdict.admits is admits
        assert symplectic_decide(direct_product(g, line)) == verdict


def test_symplectic_over_the_pfaffian_budget_is_an_error_line():
    # abelian:17 x a has all 153 two-forms closed, and its Pfaffian's sixth
    # step would hold 17*15*13*11*9*7 = 2297295 terms; its ninth, 17!!,
    # ended in a MemoryError traceback with exit 1 under this limit.
    proc = run_limited("symplectic", "--builtin", "abelian:17", "--times-a")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: the Pfaffian of abelian:17 x abelian:1 is over "
                           "the budget of %d terms at step 6 of 9\n"
                           % detect.PFAFFIAN_BUDGET)


def test_report_over_the_pfaffian_budget_is_an_error_row(tmp_path):
    # The over-budget entry is one errors row, and the JSON is byte for byte
    # that of heisenberg:5 alone with that row added.
    (tmp_path / "alone").mkdir()
    (tmp_path / "mixed").mkdir()
    for directory in ("alone", "mixed"):
        (tmp_path / directory / "h5.cat").write_text(
            "algebra h5\ndim 5\nbracket [2,3] = e1\nbracket [4,5] = e1\nend\n")
    (tmp_path / "mixed" / "big.cat").write_text("algebra big\ndim 17\nend\n")
    alone = run_limited("report", str(tmp_path / "alone"), "--json", "-")
    mixed = run_limited("report", str(tmp_path / "mixed"), "--json", "-")
    assert (alone.returncode, mixed.returncode) == (0, 2), mixed.stderr
    assert "Traceback" not in mixed.stderr
    alone_doc, mixed_doc = (proc.stdout[proc.stdout.index("\n{\n") + 1:]
                            for proc in (alone, mixed))
    error = {"entry": "big", "file": "big.cat",
             "error": "the Pfaffian of big x abelian:1 is over the budget of %d "
                      "terms at step 6 of 9" % detect.PFAFFIAN_BUDGET}
    expected = dict(json.loads(alone_doc), errors=[error])
    assert mixed_doc == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Compared with the modules loaded before the import, so whatever the
    # interpreter's start-up loads does not count.
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             "import nilsym.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", child], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    added = proc.stdout.split()
    assert "nilsym.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


@pytest.mark.parametrize("payload", [
    {"algebras": [{"name": "h3", "betti": [1, 2, 2, 1], "jacobi": True}],
     "errors": []},
    {"b": {"z": [], "a": "é"}, "a": None}])
def test_write_json_bytes(tmp_path, capsys, payload):
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "out.json"
    cli._write_json(str(path), payload)
    assert path.read_text(encoding="utf-8") == expected
    cli._write_json("-", payload)
    assert capsys.readouterr().out == expected


def test_json_to_stdout(capsys):
    code, out, _ = run(capsys, "contact", "--builtin", "heisenberg:5",
                       "--json", "-")
    assert code == 0
    tail = out[out.index("{"):]
    payload = json.loads(tail)
    assert payload["contact"]["witness"] == "x1"


def test_verify_form_on_instantiated_family(tmp_path, capsys):
    path = tmp_path / "fam.cat"
    path.write_text("algebra fam\ndim 4\nparam lambda exclude {0}\n"
                    "bracket [1,2] = e3\nbracket [1,3] = lambda*e4\nend\n")
    code, out, _ = run(capsys, "verify-form", str(path),
                       "--param", "lambda=2",
                       "--form", "x1^x4 + 2*x2^x3",
                       "--kind", "symplectic")
    assert code == 0
    assert "result: pass" in out


def test_per_algebra_text_is_pinned(tmp_path, capsys):
    path = tmp_path / "bad.cat"
    path.write_text(VIOLATOR_CAT)
    cases = [
        (("check", "--builtin", "heisenberg:5"), 0,
         ["algebra: heisenberg:5", "dim: 5", "jacobi: yes", "ucs: 1,5",
          "nilpotent: yes", "betti: 1,4,5,5,4,1"]),
        (("check", str(path)), 1,
         ["algebra: badjacobi", "dim: 3", "jacobi: no",
          "jacobi violated at: (1,2,3)"]),
        (("symplectic", "--builtin", "heisenberg:5", "--times-a"), 1,
         ["algebra: heisenberg:5 x abelian:1", "dim: 6", "symplectic: no",
          "certificate: Pfaffian ≡ 0 (10 cocycle variables, degree 3)"]),
        (("symplectic", "--builtin", "abelian:5", "--times-a"), 0,
         ["algebra: abelian:5 x abelian:1", "dim: 6", "symplectic: yes",
          "witness: x1^y + x2^x5 + x3^x4"]),
        (("contact", "--builtin", "heisenberg:7"), 0,
         ["algebra: heisenberg:7", "dim: 7", "contact: yes", "witness: x1"]),
        (("contact", "--builtin", "abelian:5"), 1,
         ["algebra: abelian:5", "dim: 5", "contact: no"]),
    ]
    for argv, expected_code, expected_lines in cases:
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == expected_code, argv
        assert lines[-1].startswith("time: ") and lines[-1].endswith(" ms"), argv
        assert lines[:-1] == expected_lines, argv


def test_analyze_builds_one_complex_per_algebra(monkeypatch):
    # One complex for g and one d^2 evaluation, however many of Jacobi,
    # Betti, the decisions and the witness verification read it.  An odd g
    # decides g x a on its own complex: a "no" (heisenberg:5) builds no
    # g x a, and a "yes" (abelian:5) builds it and its complex only to
    # verify the witness, which reads no d^2.
    counts = {"complexes": 0, "d_squared": 0, "products": 0}
    init, first_violation = cecomplex.CEComplex.__init__, cecomplex._first_violation
    product = liealg.direct_product

    def counted_product(g, h):
        counts["products"] += 1
        return product(g, h)

    def counted_init(self, *args):
        counts["complexes"] += 1
        init(self, *args)

    def counted_violation(c):
        counts["d_squared"] += 1
        return first_violation(c)

    monkeypatch.setattr(cecomplex.CEComplex, "__init__", counted_init)
    monkeypatch.setattr(cecomplex, "_first_violation", counted_violation)
    monkeypatch.setattr(liealg, "direct_product", counted_product)
    for name, admits, products in (("heisenberg:5", False, 0),
                                   ("abelian:4", True, 0),
                                   ("abelian:5", True, 1)):
        counts.update(complexes=0, d_squared=0, products=0)
        row, _ = cli._analyze(builtin(name), None,
                              ("check", "symplectic", "contact"))
        assert row["jacobi"] and row["symplectic"]["admits"] is admits
        assert counts == {"complexes": 1 + products, "d_squared": 1,
                          "products": products}, name


def test_report_json_is_the_same_under_any_hash_seed():
    # Set and dict iteration orders of str keys change with the hash seed,
    # which in-process repeats of report never vary.
    outputs = []
    for seed in ("0", "1"):
        env = dict(_child_env(), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "nilsym.cli", "report", "catalogs", "--json", "-"],
            cwd=ROOT, env=env, capture_output=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        outputs.append(out[out.index(b"\n{\n") + 1:])  # the JSON after the table
    assert json.loads(outputs[0])["algebras"]
    assert outputs[0] == outputs[1]
