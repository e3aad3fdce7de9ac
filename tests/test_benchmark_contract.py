"""The library functions the benchmark replay calls or probes must exist, and
a traced benchmark run must be able to report every per-layer metric that
BENCHMARK.json names; a run whose last line lacks one is not a whole result.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_run():
    """perfbench/run.py as a module; the import path is put back afterwards,
    and the modules it imports from perfbench/ (replay, check, workloads)
    are dropped."""
    path, known = list(sys.path), set(sys.modules)
    try:
        return load_module("perfbench_run", ROOT / "perfbench" / "run.py")
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - known:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).parent == ROOT / "perfbench":
                del sys.modules[name]


def test_replayed_and_probed_functions_exist():
    replay = load_module("perfbench_replay", ROOT / "perfbench" / "replay.py")
    lib = replay.load_library()
    missing = [name for name in replay.REPLAYED + replay.PROBED
               if not callable(lib.get(name))]
    assert missing == []


def test_replay_covers_every_per_layer_metric():
    run = load_run()
    produced = set(run.replay.Tracer().metrics(run.replay.load_library()))
    # The other names of run.py's per-layer unit table are set by traced_run
    # from the untraced passes and the checker.
    added = set(run.PER_LAYER_UNITS) - produced
    source = inspect.getsource(run.traced_run)
    assert sorted(m for m in added if 'metrics["%s"]' % m not in source) == []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for m in bench["per_layer"]}
    assert sorted(named - produced - added) == []
