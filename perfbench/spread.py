"""Run workloads over several seeds and summarise the spread of each metric.

Run from the repository root, one benchmark run at a time:

    python3 perfbench/spread.py --seeds 1-10 [--workloads ladder,decide]
                                [--trace 0] [--out perfbench/baseline.json]

For each workload and metric it prints the median of the per-run values and
the distance between their first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json.  --out also writes every
run's values and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
    return result


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for name in names:
        runs = []
        for seed in args.seeds:
            result = one_run(name, seed, spec["run_seconds"], args.trace)
            runs.append(dict(result, seed=seed))
            print("%s seed %d: correct=%s %s" % (
                name, seed, result["correct"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in result["metrics"].items()
                         if k in bounds or args.trace)), flush=True)
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs if key in r["metrics"]]
            metrics[key] = summarise(values) if len(values) > 1 else {"median": values[0]}
            if key in bounds:
                print("  %-16s median %.6g  spread %.4f  bound %.2f" % (
                    key, metrics[key]["median"], metrics[key]["spread"], bounds[key]))
        report[name] = {"runs": runs, "summary": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
