"""Pin the expected output of workloads to expected/<workload>.json.

Run from the repository root after a change that is meant to alter the
program's output, and review the diff of expected/ before committing it:

    python3 perfbench/pin.py [workload ...]

`ladder` and `decide` are pinned for every seed, since their seed only
reorders the inputs; `many-small` is pinned for workloads.DEFAULT_SEED.
A workload whose output fails the seed-independent checks is not pinned.
"""

import importlib
import json
import os
import shutil
import sys

import check
import replay
import run
import workloads

SEED_ONLY_REORDERS = ("ladder", "decide")


def pin(name):
    workdir = run.OUT / ("pin-%d" % os.getpid())
    try:
        _, _, workload = run.set_up(name, workloads.DEFAULT_SEED, workdir)
        cli_main = importlib.import_module("nilsym.cli").main
        _, _, results = run.run_pass(cli_main, workload, workdir)
        checker = check.Checker(workload)
        checker.check_pass(0, results)
        if checker.failed:
            run.report_failures(checker)
            return False
        lib = replay.load_library()
        tracer = replay.Tracer()
        replay.replay(tracer, lib, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs = {}
    for job, code, data in results:
        payload = json.loads(data)
        if job.command == "report":
            rows = {r["name"]: check.project_row(r) for r in payload["algebras"]}
        else:
            rows = {job.id: check.project_row(payload)}
        jobs[job.id] = {"exit": code, "rows": rows}
    counts = {k: v for k, v in tracer.metrics(lib).items()
              if k in replay.COUNT_METRICS}
    doc = {"seed": None if name in SEED_ONLY_REORDERS else workloads.DEFAULT_SEED,
           "jobs": jobs, "counts": counts}
    check.EXPECTED_DIR.mkdir(exist_ok=True)
    path = check.EXPECTED_DIR / ("%s.json" % name)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print("pinned %s" % path.relative_to(run.ROOT))
    return True


def main(names):
    if not run.use_sources():
        return 2
    ok = [pin(name) for name in names or workloads.WORKLOADS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
