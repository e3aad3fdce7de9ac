"""Traced sequential replay of a workload through nilsym's public functions.

The replay makes the calls the CLI makes for each job, one job after
another, each inside a span opened here (the library itself is not
instrumented).  Every job gets a `job` span; the layer calls are its
children.  Spans named only to probe a layer - calls the CLI does not make,
such as `pfaffian_polynomial` or `linalg.rank` on a differential matrix -
are marked `probe`: they give per-layer times and sizes, and are left out of
the replayed total that `cli.dispatch_ms` and `trace.overhead_ratio` use.

A probed function that no longer exists is skipped and its metrics are
reported absent; the replayed functions must exist.
"""

import importlib
import json
import re
import time
from contextlib import contextmanager
from pathlib import Path

REPLAYED = ("catalog.parse_catalog_file", "catalog.builtin", "catalog.parse_form",
            "liealg.jacobi_violation", "liealg.upper_central_series",
            "liealg.direct_product", "cecomplex.build_complex",
            "cecomplex.betti_numbers", "detect.symplectic_decide",
            "detect.contact_decide", "detect.verify_claimed_form")
PROBED = ("cecomplex.differential_matrix", "linalg.rank", "cecomplex.cocycle_basis",
          "detect.pfaffian_polynomial", "mpoly.find_nonvanishing_point",
          "cli._worker_count")

BETTI_DIMS = range(4, 11)
TIME_METRICS = (("catalog.parse_ms", "liealg.jacobi_ms", "liealg.ucs_ms",
                 "cecomplex.build_ms", "cecomplex.betti_ms")
                + tuple("cecomplex.betti_ms.dim%d" % n for n in BETTI_DIMS)
                + ("cecomplex.cocycle2_ms", "cecomplex.dmatrix_ms", "linalg.elim_ms",
                   "detect.symplectic_ms", "detect.contact_ms", "detect.pfaffian_ms",
                   "detect.verify_ms", "mpoly.witness_ms"))
COUNT_METRICS = ("catalog.entries", "cecomplex.cochains", "cecomplex.d_nnz",
                 "cecomplex.d_rank", "cecomplex.z2_dim", "linalg.dense_entries",
                 "detect.symplectic_yes", "detect.symplectic_no",
                 "detect.contact_yes", "detect.contact_no", "detect.pfaffian_vars",
                 "detect.pfaffian_terms", "mpoly.substitutions")
# Metrics that only a probed function can produce.
NEEDS = {
    "cecomplex.differential_matrix": ("cecomplex.dmatrix_ms", "cecomplex.cochains",
                                      "cecomplex.d_nnz", "linalg.dense_entries",
                                      "linalg.elim_ms", "cecomplex.d_rank"),
    "linalg.rank": ("linalg.elim_ms", "cecomplex.d_rank"),
    "cecomplex.cocycle_basis": ("cecomplex.cocycle2_ms", "cecomplex.z2_dim"),
    "detect.pfaffian_polynomial": ("detect.pfaffian_ms", "detect.pfaffian_vars",
                                   "detect.pfaffian_terms", "mpoly.witness_ms",
                                   "mpoly.substitutions"),
    "mpoly.find_nonvanishing_point": ("mpoly.witness_ms", "mpoly.substitutions"),
}
_HAS_Y = re.compile(r"\by\b")


def load_library():
    """{"module.function": callable or None} for everything the replay uses."""
    lib = {}
    for dotted in REPLAYED + PROBED:
        modname, _, attr = dotted.partition(".")
        try:
            module = importlib.import_module("nilsym." + modname)
        except ImportError:
            module = None
        lib[dotted] = getattr(module, attr, None)
        if lib[dotted] is None and dotted in REPLAYED:
            raise RuntimeError("nilsym has no %s, which the replay calls" % dotted)
    return lib


class Tracer:
    """Spans kept in memory: name, parent, job, start, duration, counts."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, probe=False, job=None, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "job": job if job is not None else (parent["job"] if parent else None),
               "probe": probe, "attrs": attrs, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec["counts"]
        finally:
            rec["dur_ns"] = time.perf_counter_ns() - rec["start_ns"]
            self._open.pop()

    def self_ns(self):
        """Span id -> duration minus the time its children cover.  Children
        of one span run one after another, so their durations do not overlap."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0) + s["dur_ns"]
        return {s["id"]: s["dur_ns"] - child.get(s["id"], 0) for s in self.spans}

    def replayed_ns(self):
        """Total time of the layer calls the CLI itself makes (no probes)."""
        return sum(s["dur_ns"] for s in self.spans
                   if s["name"] != "job" and not s["probe"])

    def layer_shares(self):
        """Share of replayed (non-probe) layer self time, per span name."""
        own = self.self_ns()
        totals = {}
        for s in self.spans:
            if s["name"] != "job" and not s["probe"]:
                totals[s["name"]] = totals.get(s["name"], 0) + own[s["id"]]
        whole = sum(totals.values()) or 1
        return {name: ns / whole for name, ns in sorted(totals.items())}

    def metrics(self, lib):
        """Per-layer times (ms) and counts of this replay; absent when the
        probed function that produces them is missing."""
        absent = {m for fn, names in NEEDS.items() if lib.get(fn) is None
                  for m in names}
        out = {m: 0 for m in TIME_METRICS + COUNT_METRICS if m not in absent}
        for s in self.spans:
            ms = s["dur_ns"] / 1e6
            keys = [s["name"] + "_ms"]
            if s["name"] == "cecomplex.betti":
                keys.append("cecomplex.betti_ms.dim%d" % s["attrs"]["dim"])
            for key in keys:
                if key in out:
                    out[key] += ms
            for key, value in s["counts"].items():
                if key in out:
                    out[key] += value
        if "linalg.dense_entries" in out:
            out["linalg.density"] = (out["cecomplex.d_nnz"] / out["linalg.dense_entries"]
                                     if out["linalg.dense_entries"] else 0.0)
        return out

    def write_jsonl(self, fh, replay):
        for s in self.spans:
            fh.write(json.dumps(dict(s, replay=replay), sort_keys=True) + "\n")


# ---- the replay -------------------------------------------------------------


def _elimination_probes(tr, lib, complex_, degrees):
    matrix_of, rank = lib["cecomplex.differential_matrix"], lib["linalg.rank"]
    if matrix_of is None:
        return
    for degree in degrees:
        with tr.span("cecomplex.dmatrix", probe=True) as counts:
            matrix, domain, codomain = matrix_of(complex_, degree)
        # Counted after the span closes, so counting is not timed.
        counts["cecomplex.cochains"] = len(domain)
        counts["cecomplex.d_nnz"] = sum(1 for row in matrix for x in row if x)
        counts["linalg.dense_entries"] = len(domain) * len(codomain)
        if rank is not None:
            with tr.span("linalg.elim", probe=True) as counts:
                counts["cecomplex.d_rank"] = rank(matrix)


def _symplectic(tr, lib, h):
    with tr.span("detect.symplectic") as counts:
        verdict = lib["detect.symplectic_decide"](h)
        counts["detect.symplectic_yes" if verdict.admits else "detect.symplectic_no"] = 1
    cocycles = lib["cecomplex.cocycle_basis"]
    if cocycles is not None:
        with tr.span("cecomplex.cocycle2", probe=True) as counts:
            counts["cecomplex.z2_dim"] = len(
                cocycles(lib["cecomplex.build_complex"](h), 2))
    pfaffian = lib["detect.pfaffian_polynomial"]
    find = lib["mpoly.find_nonvanishing_point"]
    if pfaffian is not None:
        with tr.span("detect.pfaffian", probe=True) as counts:
            p, basis = pfaffian(h)
            counts["detect.pfaffian_vars"] = len(basis)
            counts["detect.pfaffian_terms"] = len(p.terms)
        if find is not None and not p.is_zero:
            with tr.span("mpoly.witness", probe=True) as counts:
                counts["mpoly.substitutions"] = sum(int(v) + 1 for v in find(p))
    if verdict.witness is not None:
        with tr.span("detect.verify", probe=True):
            lib["detect.verify_claimed_form"](h, verdict.witness, "symplectic")


def _contact(tr, lib, g):
    with tr.span("detect.contact") as counts:
        verdict = lib["detect.contact_decide"](g)
        counts["detect.contact_yes" if verdict.admits else "detect.contact_no"] = 1
    if verdict.witness is not None:
        with tr.span("detect.verify", probe=True):
            lib["detect.verify_claimed_form"](g, verdict.witness, "contact")


def _with_line(lib, g):
    return lib["liealg.direct_product"](g, lib["catalog.builtin"]("abelian:1"))


def _analyze(tr, lib, g, claimed_forms):
    """What `nilsym report` does for one catalog entry."""
    with tr.span("liealg.jacobi"):
        bad = lib["liealg.jacobi_violation"](g)
    if bad is not None:
        return
    with tr.span("liealg.ucs"):
        lib["liealg.upper_central_series"](g)
    with tr.span("cecomplex.build"):
        complex_ = lib["cecomplex.build_complex"](g)
    with tr.span("cecomplex.betti", dim=g.dim):
        lib["cecomplex.betti_numbers"](complex_)
    _elimination_probes(tr, lib, complex_, range(g.dim + 1))
    _symplectic(tr, lib, g if g.dim % 2 == 0 else _with_line(lib, g))
    if g.dim % 2:
        _contact(tr, lib, g)
    for kind, expr in claimed_forms:
        with tr.span("detect.verify"):
            has_y = bool(_HAS_Y.search(expr))
            form = lib["catalog.parse_form"](expr, g.dim, has_y)
            lib["detect.verify_claimed_form"](_with_line(lib, g) if has_y else g,
                                              form, kind)


def _parse(tr, lib, path):
    with tr.span("catalog.parse", file=path.name) as counts:
        entries = lib["catalog.parse_catalog_file"](str(path))
        counts["catalog.entries"] = len(entries)
    return entries


def replay(tr, lib, workload, directory):
    """Replay one pass of the workload's jobs, sequentially, under spans."""
    for job in workload.jobs:
        if job.command == "report":
            entries = []
            for fname in sorted(workload.files):
                entries += _parse(tr, lib, directory / fname)
            for entry in entries:
                with tr.span("job", job=entry.name):
                    _analyze(tr, lib, entry.algebra(), entry.claimed_forms)
            continue
        with tr.span("job", job=job.id):
            if job.argv[1] == "--builtin":
                g = lib["catalog.builtin"](job.argv[2])
            else:
                name = job.argv[job.argv.index("--name") + 1]
                entries = _parse(tr, lib, Path(job.argv[1].format(dir=directory)))
                g = next(e for e in entries if e.name == name).algebra()
            if job.command == "contact":
                _contact(tr, lib, g)
                continue
            h = _with_line(lib, g) if job.times_a else g
            with tr.span("cecomplex.build", probe=True):
                complex_ = lib["cecomplex.build_complex"](h)
            _elimination_probes(tr, lib, complex_, (2,))
            _symplectic(tr, lib, h)
