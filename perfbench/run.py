"""Benchmark of the nilsym CLI: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 55 --trace 0

Workloads are `ladder`, `decide` and `many-small` (see workloads.py for why
each is there).  BENCHMARK.json lists only `ladder` and `many-small`: most
of a `decide` pass is one 5 s Pfaffian job, and the host's fast and slow
phases moved its run medians by up to 1.7 times (a spread of 0.29 over ten
runs, past the largest bound the benchmark may set), while the other two
stayed near 0.1.  Run `decide` by hand for work on the symplectic decision;
its detect and mpoly layers are also traced on the other two.

Every pass drives the real entry point `nilsym.cli.main` in this process,
with the environment users have (`NILSYM_THREADS` unset, so `report` uses
`os.cpu_count()` threads).  Passes repeat, at least three, until one more
pass as slow as the slowest so far would end after `--seconds`.  Before each
pass the set-up (import nilsym afresh, generate and parse the inputs) runs
SETUPS_PER_PASS times, so set-ups are sampled across the whole run, as
passes are, not only at its start.  `setup_s` is the mean of these set-ups,
not their median: the host runs in a fast and a slow phase that last from
under a second to minutes, a set-up of about 40 ms falls in one of them and
takes about 1.6 times as long in the slow one, so the median jumps from one
phase's time to the other's with the phases' share of the run, while the
mean moves in proportion to it, as the times of long passes do.

Passes and set-ups are timed in CPU seconds of this process (user + system,
all threads).  nilsym is CPU-bound and its `report` threads take turns under
the GIL, so on a machine of its own a pass waits as long as it computes.  On
a shared virtual machine wall time also counts the time the hypervisor gives
the core to other guests (steal time), which comes and goes within minutes
and is no property of nilsym.  Wall times are printed as well.  Should
nilsym ever compute in child processes or in threads that release the GIL,
CPU time no longer matches what a user waits for, and this benchmark must
change.

--trace 0  untraced passes; prints the end-to-end metrics.
--trace 1  untraced passes alternating with traced sequential replays
           (replay.py); prints the per-layer metrics and writes the spans as
           JSON lines to .perfbench_out/spans-<workload>-seed<seed>.jsonl.

Every pass is checked (check.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS_PER_PASS = 5
MIN_PASSES = 3
MIN_REPLAYS = 2

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"cpu_s": "s", "cpu_s_tail": "s", "algebras_per_cpu_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{m: "ms" for m in replay.TIME_METRICS},
    **{m: "count" for m in replay.COUNT_METRICS},
    "linalg.density": "ratio", "cli.workers": "count", "cli.dispatch_ms": "ms",
    "trace.overhead_ratio": "ratio", "check.failed_share": "ratio"}


def use_sources():
    """Put the repository's nilsym first on the import path, with the
    environment users have; False (with a message) when there is none."""
    if not (SRC / "nilsym" / "cli.py").is_file():
        print("error: no nilsym sources under %s" % SRC, file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ.pop("NILSYM_THREADS", None)
    OUT.mkdir(exist_ok=True)
    return True


def set_up(name, seed, workdir):
    """Import nilsym afresh, generate the inputs and parse them.

    Returns (CPU seconds, wall seconds, workload).  Dropping nilsym from
    sys.modules first makes every repeat pay the import again.
    """
    for mod in [m for m in sys.modules if m == "nilsym" or m.startswith("nilsym.")]:
        del sys.modules[mod]
    start, start_cpu = time.perf_counter(), time.process_time()
    importlib.import_module("nilsym.cli")
    catalog = importlib.import_module("nilsym.catalog")
    workload = workloads.build(name, seed)
    workload.write(workdir)
    for fname in workload.files:
        catalog.parse_catalog_file(str(workdir / fname))
    return time.process_time() - start_cpu, time.perf_counter() - start, workload


def run_pass(cli_main, workload, workdir):
    """One pass of the workload's CLI calls.

    Returns (CPU seconds, wall seconds spent inside the CLI,
    [(job, exit code, JSON bytes)]).
    """
    cpu = wall = 0.0
    results = []
    for n, job in enumerate(workload.jobs):
        out = workdir / ("out-%d.json" % n)
        if out.exists():
            out.unlink()
        argv = [a.format(dir=workdir) for a in job.argv] + ["--json", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start, start_cpu = time.perf_counter(), time.process_time()
            code = cli_main(argv)
            cpu += time.process_time() - start_cpu
            wall += time.perf_counter() - start
        results.append((job, code, out.read_bytes() if out.exists() else None))
    return cpu, wall, results


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it.  A run of few passes has fewer than eleven samples, so
    there the ten becomes a quarter of them: with six passes the tail is the
    second-slowest, which, unlike the slowest, one stray pass cannot set."""
    s = sorted(samples)
    n = len(s)
    beyond = min(10, n // 4)
    return 100 * (n - beyond) // n, s[n - 1 - beyond]


def report_failures(checker):
    for index, key, problems in checker.failures[:10]:
        print("FAILED pass %d %s: %s" % (index, key, "; ".join(problems)),
              file=sys.stderr)


def timed_run(args, workdir):
    setups, setup_walls = [], []
    times, walls, rounds = [], [], []
    checker = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            seconds, wall, workload = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
            setup_walls.append(wall)
        if checker is None:
            checker = check.Checker(workload, check.load_pinned(workload))
        cli_main = importlib.import_module("nilsym.cli").main
        seconds, wall, results = run_pass(cli_main, workload, workdir)
        times.append(seconds)
        walls.append(wall)
        checker.check_pass(len(times) - 1, results)
        rounds.append(time.perf_counter() - round_start)
        if (len(times) >= MIN_PASSES and time.perf_counter() - start
                + max(rounds) > args.seconds):
            break
    pct, tail_s = tail(times)
    print("passes: %d, pass CPU seconds: %s" % (len(times), " ".join("%.3f" % t for t in times)))
    print("pass wall seconds: %s" % " ".join("%.3f" % t for t in walls))
    print("cpu_s_tail: p%d of %d passes" % (pct, len(times)))
    print("setup CPU seconds: %s" % " ".join("%.4f" % t for t in setups))
    print("setup wall seconds: %s" % " ".join("%.4f" % t for t in setup_walls))
    report_failures(checker)
    metrics = {
        "cpu_s": statistics.median(times),
        "cpu_s_tail": tail_s,
        "algebras_per_cpu_s": workload.algebras_per_pass * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.fmean(setups),
    }
    return checker.failed == 0, checker, metrics


def _counts_problems(replays, pinned):
    """Size counts must repeat exactly across replays and match pinned ones."""
    first = {k: v for k, v in replays[0].items() if k in replay.COUNT_METRICS}
    problems = ["count %s differs between replays" % k
                for other in replays[1:] for k, v in first.items() if other[k] != v]
    for k, v in ((pinned or {}).get("counts") or {}).items():
        if k in first and first[k] != v:
            problems.append("count %s is %s, pinned %s" % (k, first[k], v))
    return problems


def traced_run(args, workdir):
    _, _, workload = set_up(args.workload, args.seed, workdir)
    lib = replay.load_library()
    cli_main = importlib.import_module("nilsym.cli").main
    pinned = check.load_pinned(workload)
    checker = check.Checker(workload, pinned)
    pass_times, tracers = [], []
    start = time.perf_counter()
    while True:
        _, seconds, results = run_pass(cli_main, workload, workdir)
        pass_times.append(seconds)
        checker.check_pass(len(pass_times) - 1, results)
        tracer = replay.Tracer()
        replay_start = time.perf_counter()
        replay.replay(tracer, lib, workload, workdir)
        replay_seconds = time.perf_counter() - replay_start
        tracers.append(tracer)
        if (len(tracers) >= MIN_REPLAYS and time.perf_counter() - start
                + seconds + replay_seconds > args.seconds):
            break
    replays = [t.metrics(lib) for t in tracers]
    problems = _counts_problems(replays, pinned)
    for p in problems:
        print("FAILED %s" % p, file=sys.stderr)
    report_failures(checker)

    # Counts repeat across replays (checked above); times take the median.
    metrics = {k: v if k in replay.COUNT_METRICS else statistics.median(r[k] for r in replays)
               for k, v in replays[0].items()}
    wall_ms = statistics.median(pass_times) * 1000
    replayed_ms = statistics.median(t.replayed_ns() for t in tracers) / 1e6
    metrics["cli.dispatch_ms"] = wall_ms - replayed_ms
    metrics["trace.overhead_ratio"] = replayed_ms / wall_ms
    metrics["check.failed_share"] = checker.failed / checker.attempted
    if lib["cli._worker_count"] is not None:
        metrics["cli.workers"] = lib["cli._worker_count"]()

    spans_path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    with open(spans_path, "w", encoding="utf-8") as fh:
        for n, tracer in enumerate(tracers):
            tracer.write_jsonl(fh, n)
    print("replays: %d, spans: %s" % (len(tracers), spans_path.relative_to(ROOT)))
    print("replayed layer self-time shares (last replay):")
    for name, share in tracers[-1].layer_shares().items():
        print("  %-22s %6.1f%%" % (name, 100 * share))
    return checker.failed == 0 and not problems, checker, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        return 2
    workdir = OUT / ("work-%d" % os.getpid())
    try:
        if args.trace:
            correct, checker, metrics = traced_run(args, workdir)
            units = PER_LAYER_UNITS
        else:
            correct, checker, metrics = timed_run(args, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
