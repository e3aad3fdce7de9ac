"""Tests of the benchmark itself: generators, probes, checker, metric names.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import random
from fractions import Fraction

import pytest

import check
import replay
import run
import workloads
from nilsym import jacobi_violation, parse_catalog
from nilsym.cli import main as cli_main


def tiny(seed=0):
    specs = [workloads.abelian(4, "A4", (("symplectic", "x1^x2 + x3^x4"),)),
             workloads.heisenberg(5, "H5"),
             workloads.times_a(workloads.heisenberg(3), "KT")]
    return workloads.report_workload("tiny", seed, random.Random(seed), specs, 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.files == b.files
    assert [j.argv for j in a.jobs] == [j.argv for j in b.jobs]
    assert a.specs == b.specs


def test_seed_changes_many_small_and_only_reorders_the_ladder():
    assert workloads.build("many-small", 1).files != workloads.build("many-small", 2).files
    one, two = workloads.build("ladder", 1), workloads.build("ladder", 2)
    assert one.specs == two.specs and one.files != two.files


def test_generated_catalogs_parse_and_satisfy_jacobi():
    wl = workloads.build("many-small", 3)
    entries = [e for text in wl.files.values() for e in parse_catalog(text)]
    assert sorted(e.name for e in entries) == sorted(wl.specs)
    assert all(jacobi_violation(e.algebra()) is None for e in entries)


def test_own_form_checks():
    kt = workloads.times_a(workloads.heisenberg(3))
    assert check.is_symplectic(kt.brackets, 4, check.parse_rendered("x1^x2 + x3^x4", 4))
    assert not check.is_symplectic(kt.brackets, 4, check.parse_rendered("x1^x4 + x2^x3", 4))
    h5 = workloads.heisenberg(5)
    assert check.is_contact(h5.brackets, 5, check.parse_rendered("x1", 5))
    assert not check.is_contact(h5.brackets, 5, check.parse_rendered("x2", 5))
    assert check.parse_rendered("x1^y - 3/2*x2^x3", 6) == {(1, 6): 1, (2, 3): Fraction(-3, 2)}


def _passes(wl, tmp_path, n=1):
    wl.write(tmp_path)
    return [run.run_pass(cli_main, wl, tmp_path)[2] for _ in range(n)]


def test_checker_accepts_real_output(tmp_path):
    wl = tiny()
    checker = check.Checker(wl)
    for index, results in enumerate(_passes(wl, tmp_path, 2)):
        checker.check_pass(index, results)
    assert (checker.attempted, checker.failed) == (6, 0)


def test_checker_flags_a_corrupted_verdict(tmp_path):
    wl = tiny()
    [[(job, code, data)]] = _passes(wl, tmp_path)
    payload = json.loads(data)
    for row in payload["algebras"]:
        if row["name"] == "KT":
            row["symplectic"] = {"admits": False,
                                 "certificate": "identically-zero-pfaffian"}
    checker = check.Checker(wl)
    checker.check_pass(0, [(job, code, json.dumps(payload).encode())])
    assert [key for _, key, _ in checker.failures] == ["KT"]


def test_checker_flags_unreadable_output_without_raising(tmp_path):
    wl = tiny()
    [[(job, code, data)]] = _passes(wl, tmp_path)
    payload = json.loads(data)
    payload["algebras"][0]["symplectic"]["witness"] = "x1^"
    checker = check.Checker(wl)
    checker.check_pass(0, [(job, code, json.dumps(payload).encode()),
                           (job, code, None)])
    assert (checker.attempted, checker.failed) == (6, 6)


def test_checker_flags_a_wrong_exit_code_and_pinned_mismatch(tmp_path):
    wl = workloads.build("decide", 1)
    job = next(j for j in wl.jobs if j.id == "contact heisenberg:9")
    wl.jobs = [job]
    [[(_, code, data)]] = _passes(wl, tmp_path)
    assert code == 0
    checker = check.Checker(wl, check.load_pinned(wl))
    checker.check_pass(0, [(job, 1, data)])
    assert checker.failed == 1
    pinned = {"jobs": {job.id: {"exit": 0, "rows": {job.id: {"dim": 9}}}}}
    checker = check.Checker(wl, pinned)
    checker.check_pass(0, [(job, code, data)])
    assert "differs from pinned output" in checker.failures[0][2]


def test_missing_probe_leaves_its_metrics_absent(tmp_path):
    wl = tiny()
    wl.write(tmp_path)
    lib = replay.load_library()
    full = replay.Tracer()
    replay.replay(full, lib, wl, tmp_path)
    lib["linalg.rank"] = None
    lib["detect.pfaffian_polynomial"] = None
    partial = replay.Tracer()
    replay.replay(partial, lib, wl, tmp_path)
    gone = set(full.metrics(replay.load_library())) - set(partial.metrics(lib))
    assert gone == {"linalg.elim_ms", "cecomplex.d_rank", "detect.pfaffian_ms",
                    "detect.pfaffian_vars", "detect.pfaffian_terms",
                    "mpoly.witness_ms", "mpoly.substitutions"}
    assert partial.metrics(lib)["cecomplex.d_nnz"] == full.metrics(lib)["cecomplex.d_nnz"]


def test_self_time_excludes_children():
    tr = replay.Tracer()
    with tr.span("job", job="j"):
        with tr.span("liealg.jacobi"):
            sum(range(10000))
    job, child = tr.spans
    assert child["job"] == "j" and child["parent"] == job["id"]
    assert tr.self_ns()[job["id"]] == job["dur_ns"] - child["dur_ns"]


def test_tail_percentile_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)
    assert run.tail([6.0, 1.0, 5.0, 2.0, 4.0, 3.0]) == (83, 5.0)
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (75, 30.0)
    assert sum(1 for s in samples if s > 30.0) == 10


def test_metric_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    benchmarked = [w["name"] for w in spec["workloads"]]
    assert benchmarked == [w for w in workloads.WORKLOADS if w in benchmarked]
    assert set(workloads.WORKLOADS) - set(benchmarked) == {"decide"}
