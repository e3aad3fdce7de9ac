"""Command-line front end: load catalogs or builtins, run the exact checks,
emit stable human tables and machine JSON.

`check`, `symplectic`, `contact` and `report` all build their rows with one
`_analyze`, which runs the named parts of the analysis on one algebra; the
first three print a row with `_print_row`, and `report` reads its catalog
files one at a time, analyzes each file's entries one after another and
prints one line per row.  JSON is streamed to its file, never held whole.

Exit codes: 0 success (or "admits"), 1 honest negative verdict / failed
verification, 2 parse or usage errors.  JSON output is deterministic
(sorted keys, no timing data); timings only appear in the human text.
"""

import argparse
import functools
import json
import os
import re
import sys
import time

from .catalog import (CatalogError, _parse_rational, builtin,
                      parse_catalog_file, parse_form)
from .cecomplex import betti_numbers, build_complex
from .detect import contact_decide, symplectic_decide, verify_claimed_form
from .liealg import jacobi_violation, times_line, upper_central_series

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2

_HAS_Y = re.compile(r"\by\b")


def _parse_bindings(pairs):
    bindings = {}
    for pair in pairs or ():
        name, eq, value = pair.partition("=")
        if not eq or not name or not value:
            raise ValueError("--param expects name=rational, got %r" % pair)
        try:
            bindings[name.strip()] = _parse_rational(value)
        except CatalogError as exc:
            raise ValueError("--param %s: %s" % (name.strip(), exc)) from None
    return bindings


def _load_selection(args):
    """Resolve --builtin/path/--name into (algebra, entry-or-None) pairs,
    binding each entry only to its own parameter; a name no selected entry
    declares (any name, with --builtin) is an unknown parameter."""
    bindings = _parse_bindings(getattr(args, "param", None))
    entries = []
    if not args.builtin:
        if not args.path:
            raise ValueError("supply a catalog path or --builtin NAME")
        entries = parse_catalog_file(args.path)
        if getattr(args, "name", None):
            entries = [e for e in entries if e.name == args.name]
            if not entries:
                raise ValueError("no algebra named %r in %s" % (args.name, args.path))
    unknown = [name for name in bindings if name not in {e.param for e in entries}]
    if unknown:
        raise ValueError("unknown parameter %r" % unknown[0])
    if args.builtin:
        return [(builtin(args.builtin), None)]
    return [(e.algebra({n: v for n, v in bindings.items() if n == e.param}), e)
            for e in entries]


def _single_selection(args):
    pairs = _load_selection(args)
    if len(pairs) != 1:
        raise ValueError("catalog holds %d algebras; select one with --name"
                         % len(pairs))
    return pairs[0]


def _fmt_ints(values):
    return ",".join(str(v) for v in values)


def _symplectic_report(g, space, times_a=False):
    """The symplectic decision on g, or with `times_a` on g x a, decided on
    g's complex and rendered with y as a's label."""
    verdict = symplectic_decide(g, times_a)
    out = {
        "space": space,
        "admits": verdict.admits,
        "pfaffian_nvars": verdict.pfaffian_nvars,
        "pfaffian_degree": verdict.pfaffian_degree,
        "certificate": verdict.certificate_kind,
    }
    if verdict.witness is not None:
        labels = g.dual_labels + ("y",) if times_a else g.dual_labels
        out["witness"] = verdict.witness.render(labels)
    return out


def _contact_report(g):
    verdict = contact_decide(g)
    out = {"admits": verdict.admits}
    if verdict.witness is not None:
        out["witness"] = verdict.witness.render(g.dual_labels)
    return out


def _claimed_form_report(g, product, kind, expr):
    """The check of one claimed form on g, or, when it names y, on
    product(), which builds g x a."""
    out = {"kind": kind, "expr": expr}
    try:
        has_y = bool(_HAS_Y.search(expr))
        target = product() if has_y else g
        form = parse_form(expr, g.dim, has_y)
        report = verify_claimed_form(target, form, kind)
        out["passed"] = report.passed
        out["checks"] = {name: ok for name, ok in report.checks}
    except (CatalogError, ValueError) as exc:
        out["passed"] = False
        out["error"] = str(exc)
    return out


def _analyze(g, entry, parts, times_a=False):
    """One row for g and its time in ms, which the row never carries.

    `parts` names what to run: "check" (Jacobi, the upper central series and
    the Betti numbers), "symplectic" (on g in even dimension, on g x a in
    odd) and "contact" (odd dimension only).  With `times_a` the row is
    g x a's, which only "symplectic" may be asked of.  The decisions and the
    entry's claimed forms run only when Jacobi holds or was not checked.
    The symplectic decision on g x a reads g's complex, so a "no" builds no
    g x a; a "yes" builds it to verify the witness, and a claimed form that
    names y builds it too.  On a g of dimension MAX_DIM, g x a is over the
    limit, and only a claimed form that names y reports that error.
    """
    start = time.perf_counter()
    row = ({"name": g.name + " x abelian:1", "dim": g.dim + 1} if times_a
           else {"name": g.name, "dim": g.dim})
    if "check" in parts:
        bad = jacobi_violation(g)
        row["jacobi"] = bad is None
        if bad is not None:
            row["jacobi_violation"] = list(bad)
        else:
            ucs = upper_central_series(g)
            row["ucs_dims"] = list(ucs.dims)
            row["nilpotent"] = ucs.is_nilpotent
            row["betti"] = list(betti_numbers(build_complex(g)))
    if row.get("jacobi", True):
        if "symplectic" in parts:
            row["symplectic"] = (_symplectic_report(g, "g x a", True)
                                 if g.dim % 2 and not times_a
                                 else _symplectic_report(g, "g", times_a))
        if "contact" in parts and g.dim % 2:
            row["contact"] = _contact_report(g)
        if entry is not None and entry.claimed_forms:
            product = functools.cache(lambda: times_line(g))
            row["claimed_forms"] = [
                _claimed_form_report(g, product, kind, expr)
                for kind, expr in entry.claimed_forms]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return row, elapsed_ms


def _write_json(path, payload):
    """The payload as indented JSON with sorted keys and a final newline,
    streamed to `path` ('-' for stdout) chunk by chunk, never held whole."""
    if path == "-":
        _dump_json(sys.stdout, payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _dump_json(fh, payload)


def _dump_json(fh, payload):
    json.dump(payload, fh, sort_keys=True, indent=2)
    fh.write("\n")


def _bool_word(flag):
    return "yes" if flag else "no"


def _print_row(row, ms):
    """The text of check, symplectic and contact: lines for the row's keys."""
    print("algebra: %s" % row["name"])
    print("dim: %d" % row["dim"])
    if "jacobi" in row:
        print("jacobi: %s" % _bool_word(row["jacobi"]))
        if not row["jacobi"]:
            print("jacobi violated at: (%s)" % _fmt_ints(row["jacobi_violation"]))
        else:
            print("ucs: %s" % _fmt_ints(row["ucs_dims"]))
            print("nilpotent: %s" % _bool_word(row["nilpotent"]))
            print("betti: %s" % _fmt_ints(row["betti"]))
    sym = row.get("symplectic")
    if sym:
        print("symplectic: %s" % _bool_word(sym["admits"]))
        if sym["admits"]:
            print("witness: %s" % sym["witness"])
        else:
            print("certificate: Pfaffian ≡ 0 (%d cocycle variables, degree %d)"
                  % (sym["pfaffian_nvars"], sym["pfaffian_degree"]))
    con = row.get("contact")
    if con:
        print("contact: %s" % _bool_word(con["admits"]))
        if con["admits"]:
            print("witness: %s" % con["witness"])
    print("time: %d ms" % ms)


# ---- subcommands -----------------------------------------------------------


def _cmd_check(args):
    rows = []
    for g, entry in _load_selection(args):
        row, ms = _analyze(g, entry, ("check",))
        rows.append(row)
        _print_row(row, ms)
    if args.json:
        _write_json(args.json, {"algebras": rows})
    return EXIT_OK if all(row["jacobi"] for row in rows) else EXIT_NO


def _cmd_decide(args, kind):
    g, _ = _single_selection(args)
    times_a = kind == "symplectic" and args.times_a
    dim = g.dim + times_a
    if kind == "symplectic":
        if dim % 2:
            hint = "drop --times-a" if times_a else "try --times-a"
            raise ValueError("dimension %d is odd; symplectic needs an even "
                             "total dimension (%s)" % (dim, hint))
    elif dim % 2 == 0:
        raise ValueError("dimension %d is even; contact needs odd dimension"
                         % dim)
    row, ms = _analyze(g, None, (kind,), times_a)
    _print_row(row, ms)
    if args.json:
        _write_json(args.json, row)
    return EXIT_OK if row[kind]["admits"] else EXIT_NO


def _cmd_verify_form(args):
    g, _ = _single_selection(args)
    target = times_line(g) if args.times_a else g
    form = parse_form(args.form, g.dim, has_y=args.times_a)
    report = verify_claimed_form(target, form, args.kind)
    print("algebra: %s" % target.name)
    print("form (%s): %s" % (args.kind, form.render(target.dual_labels)))
    for name, ok in report.checks:
        print("%s: %s" % (name, _bool_word(ok)))
    print("result: %s" % report.summary())
    if args.json:
        _write_json(args.json, {
            "name": target.name, "dim": target.dim, "kind": args.kind,
            "form": form.render(target.dual_labels),
            "passed": report.passed,
            "checks": {name: ok for name, ok in report.checks}})
    return EXIT_OK if report.passed else EXIT_NO


def _worker_count():
    """Entries `report` analyzes at once: one, since it runs them in turn."""
    return 1


def _cmd_report(args):
    directory = args.dir
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".cat"))
    except OSError as exc:
        raise ValueError("cannot read directory %s: %s" % (directory, exc))
    # One file's entries are held at a time: each file is parsed and its
    # entries analyzed before the next is read.  File errors still come
    # before entry errors.
    file_errors, entry_errors = [], []
    results = []  # (row, ms)
    for fname in names:
        try:
            entries = parse_catalog_file(os.path.join(directory, fname))
        except (CatalogError, OSError) as exc:
            file_errors.append({"file": fname, "error": str(exc)})
            continue
        for entry in entries:
            try:
                row, ms = _analyze(entry.algebra(), entry,
                                   ("check", "symplectic", "contact"))
            except (CatalogError, ValueError) as exc:
                entry_errors.append({"file": fname, "entry": entry.name,
                                     "error": str(exc)})
                continue
            row["file"] = fname
            results.append((row, ms))
    results.sort(key=lambda pair: (pair[0]["dim"], pair[0]["name"]))
    errors = file_errors + entry_errors

    flagged = False
    for row, ms in results:
        bits = ["%-16s" % row["name"], "dim=%d" % row["dim"],
                "jacobi=%s" % _bool_word(row["jacobi"])]
        if row["jacobi"]:
            bits.append("ucs=%s" % _fmt_ints(row["ucs_dims"]))
            bits.append("betti=%s" % _fmt_ints(row["betti"]))
            sym = row.get("symplectic")
            if sym:
                bits.append("symplectic(%s)=%s" % (sym["space"],
                                                   _bool_word(sym["admits"])))
            if "contact" in row:
                bits.append("contact=%s" % _bool_word(row["contact"]["admits"]))
            forms = row.get("claimed_forms", [])
            if forms:
                good = sum(1 for f in forms if f["passed"])
                bits.append("forms=%d/%d pass" % (good, len(forms)))
                if good < len(forms):
                    flagged = True
        else:
            flagged = True
        bits.append("time=%dms" % ms)
        print("  ".join(bits))
    for err in errors:
        print("error: %s" % json.dumps(err, sort_keys=True), file=sys.stderr)
    if args.json:
        _write_json(args.json, {"algebras": [row for row, _ in results],
                                "errors": errors})
    return EXIT_ERROR if (errors or flagged) else EXIT_OK


# ---- argument parsing --------------------------------------------------------


def _add_source(sub, with_name=True):
    sub.add_argument("path", nargs="?", help="catalog file (.cat)")
    sub.add_argument("--builtin", metavar="NAME",
                     help="bundled algebra: abelian:N, heisenberg:N, g13457C")
    if with_name:
        sub.add_argument("--name", help="select one algebra from the catalog")
    sub.add_argument("--param", action="append", metavar="NAME=RATIONAL",
                     help="bind a structure-constant parameter, e.g. lambda=1/2")
    sub.add_argument("--json", metavar="PATH",
                     help="write a machine-readable report ('-' for stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilsym",
        description="Exact symplectic/contact detection for nilpotent Lie "
                    "algebras given by rational structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Jacobi, upper central series, Betti numbers")
    _add_source(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("symplectic", help="decide existence of a symplectic form")
    _add_source(p)
    p.add_argument("--times-a", action="store_true",
                   help="decide on g x a (one-dimensional factor appended)")
    p.set_defaults(func=lambda args: _cmd_decide(args, "symplectic"))

    p = sub.add_parser("contact", help="decide existence of a contact form")
    _add_source(p)
    p.set_defaults(func=lambda args: _cmd_decide(args, "contact"))

    p = sub.add_parser("verify-form",
                       help="verify a claimed symplectic/contact form")
    _add_source(p)
    p.add_argument("--form", required=True, metavar="EXPR",
                   help='form expression, e.g. "x1^x2 + x3^x4 + x5^y"')
    p.add_argument("--kind", required=True, choices=("symplectic", "contact"))
    p.add_argument("--times-a", action="store_true",
                   help="verify on g x a; enables the y generator")
    p.set_defaults(func=_cmd_verify_form)

    p = sub.add_parser("report", help="aggregate report over a catalog directory")
    p.add_argument("dir", help="directory of .cat files")
    p.add_argument("--json", metavar="PATH", help="write the aggregated JSON")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CatalogError, ValueError, ZeroDivisionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
