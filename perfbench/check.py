"""Output checker: decides, job by job, whether a CLI result is correct.

A job fails when its exit code, verdicts, witnesses, Betti numbers or JSON
bytes differ from what is expected.  Three sources of expectation:

- pinned output (`expected/<workload>.json`, written by `pin.py`), compared
  on the fields listed in `project_row`, so fields added to the report later
  do not count as failures;
- facts that hold for any seed: b0 = bn = 1, Poincare duality, Euler
  characteristic 0, the upper central series reaching dim (every generated
  algebra is nilpotent), every claimed form passing, and every "yes" witness
  being closed and nondegenerate, re-checked here with this module's own
  bracket and determinant code rather than nilsym's;
- verdicts known for a family (`Spec.known`) and abelian Betti numbers
  being binomial coefficients.

`report` JSON must also be byte-identical across the passes of a run.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SYMPLECTIC_KEYS = ("admits", "certificate", "pfaffian_degree",
                   "pfaffian_nvars", "space", "witness")


def project_row(row):
    """The fields of a JSON row that pinned output is compared on."""
    out = {k: row[k] for k in ("dim", "jacobi", "ucs_dims", "nilpotent", "betti")
           if k in row}
    if "symplectic" in row:
        out["symplectic"] = {k: row["symplectic"][k] for k in SYMPLECTIC_KEYS
                             if k in row["symplectic"]}
    if "contact" in row:
        out["contact"] = {k: row["contact"][k] for k in ("admits", "witness")
                          if k in row["contact"]}
    if "claimed_forms" in row:
        out["claimed_forms"] = [f["passed"] for f in row["claimed_forms"]]
    return out


def load_pinned(workload):
    """Pinned expectations for this workload and seed, or None."""
    path = EXPECTED_DIR / ("%s.json" % workload.name)
    if not path.is_file():
        return None
    pinned = json.loads(path.read_text(encoding="utf-8"))
    if pinned["seed"] is not None and pinned["seed"] != workload.seed:
        return None
    return pinned


# ---- exact arithmetic of our own -----------------------------------------


def _bracket(brackets, i, j):
    if i < j:
        return brackets.get((i, j), {})
    return {k: -c for k, c in brackets.get((j, i), {}).items()}


def full_rank(matrix):
    """Whether a square rational matrix is invertible (fraction elimination)."""
    m = [list(row) for row in matrix]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return True


def parse_rendered(text, dim):
    """Parse a rendered form such as `x1^x4 - 3/2*x2^y` into
    {index tuple: Fraction}; y is generator dim."""
    terms = {}
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, _, mono = tok.rpartition("*")
        idxs = tuple(dim if gen == "y" else int(gen[1:])
                     for gen in mono.split("^"))
        terms[idxs] = sign * (Fraction(coeff) if coeff else Fraction(1))
        sign = 1
    return terms


def is_symplectic(brackets, dim, form):
    """Closed (d form = 0 on every triple) and nondegenerate (det != 0)."""
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for idxs, c in form.items():
        if len(idxs) != 2:
            return False
        i, j = idxs
        gram[i - 1][j - 1] = c
        gram[j - 1][i - 1] = -c

    def pair(vec, k):
        return sum(c * gram[l - 1][k - 1] for l, c in vec.items())

    for i, j, k in combinations(range(1, dim + 1), 3):
        if (-pair(_bracket(brackets, i, j), k) + pair(_bracket(brackets, i, k), j)
                - pair(_bracket(brackets, j, k), i)):
            return False
    return full_rank(gram)


def is_contact(brackets, dim, form):
    """a ^ (da)^n != 0 iff the bordered matrix [[da, a], [-a, 0]] is
    invertible, with da(e_i, e_j) = -a([e_i, e_j])."""
    alpha = [Fraction(0)] * dim
    for idxs, c in form.items():
        if len(idxs) != 1:
            return False
        alpha[idxs[0] - 1] = c
    m = [[Fraction(0)] * (dim + 1) for _ in range(dim + 1)]
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            m[i - 1][j - 1] = -sum(c * alpha[k - 1]
                                   for k, c in _bracket(brackets, i, j).items())
        m[i - 1][dim] = alpha[i - 1]
        m[dim][i - 1] = -alpha[i - 1]
    return full_rank(m)


# ---- per-row and per-job checks ------------------------------------------


def _betti_problems(spec, row):
    problems = []
    n = spec.dim
    ucs = row.get("ucs_dims") or [0]
    if ucs[-1] != n or row.get("nilpotent") is not True:
        problems.append("upper central series %s does not reach %d" % (ucs, n))
    b = row.get("betti", [])
    if len(b) != n + 1 or b[0] != 1 or b[n] != 1:
        problems.append("betti %s: b0 and b%d must be 1" % (b, n))
    elif any(b[k] != b[n - k] for k in range(n + 1)):
        problems.append("betti %s breaks Poincare duality" % b)
    elif sum((-1) ** k * x for k, x in enumerate(b)):
        problems.append("betti %s: Euler characteristic is not 0" % b)
    if spec.family == "abelian" and b != [comb(n, k) for k in range(n + 1)]:
        problems.append("abelian betti %s are not binomial" % b)
    return problems


def _symplectic_problems(spec, report, space_dim):
    problems = []
    if report["admits"]:
        form = parse_rendered(report.get("witness", ""), space_dim)
        if not is_symplectic(spec.brackets, space_dim, form):
            problems.append("symplectic witness %r fails the re-check"
                            % report.get("witness"))
    elif report.get("certificate") != "identically-zero-pfaffian":
        problems.append("symplectic 'no' without a Pfaffian certificate")
    known = spec.known.get("symplectic")
    if known is not None and space_dim == spec.dim + spec.dim % 2 \
            and report["admits"] != known:
        problems.append("symplectic verdict %s, known %s" % (report["admits"], known))
    return problems


def _contact_problems(spec, report):
    problems = []
    if report["admits"] and not is_contact(
            spec.brackets, spec.dim, parse_rendered(report.get("witness", ""),
                                                    spec.dim)):
        problems.append("contact witness %r fails the re-check"
                        % report.get("witness"))
    known = spec.known.get("contact")
    if known is not None and report["admits"] != known:
        problems.append("contact verdict %s, known %s" % (report["admits"], known))
    return problems


def report_row_problems(spec, row):
    """Seed-independent problems with one `report` row."""
    if row.get("jacobi") is not True:
        return ["jacobi reported violated"]
    problems = _betti_problems(spec, row)
    if "symplectic" not in row:
        problems.append("no symplectic verdict")
    else:
        problems += _symplectic_problems(spec, row["symplectic"],
                                         spec.dim + spec.dim % 2)
    if spec.dim % 2:
        if "contact" not in row:
            problems.append("no contact verdict")
        else:
            problems += _contact_problems(spec, row["contact"])
    forms = row.get("claimed_forms", [])
    if len(forms) != len(spec.forms) or not all(f["passed"] for f in forms):
        problems.append("claimed forms not all passing: %s" % forms)
    return problems


def decide_row_problems(spec, job, exit_code, row):
    """Seed-independent problems with one `symplectic` / `contact` row."""
    report = row.get(job.command)
    if report is None:
        return ["no %s verdict" % job.command]
    problems = []
    if exit_code != (0 if report["admits"] else 1):
        problems.append("exit code %d for admits=%s" % (exit_code, report["admits"]))
    if job.command == "symplectic":
        problems += _symplectic_problems(spec, report,
                                         spec.dim + (1 if job.times_a else 0))
    else:
        problems += _contact_problems(spec, report)
    return problems


class Checker:
    """Checks every pass of one run; counts attempted and failed jobs.

    For `report` each algebra row is a job; for `decide` each CLI call is.
    """

    def __init__(self, workload, pinned=None):
        self.workload = workload
        self.pinned = pinned
        self.first_bytes = {}
        self.attempted = 0
        self.failures = []  # (pass index, job key, problems)

    def check_pass(self, index, results):
        """results: [(job, exit code, JSON bytes or None)] of one pass."""
        for job, exit_code, data in results:
            try:
                verdicts = self._check_job(job, exit_code, data)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                verdicts = {key: ["malformed output: %r" % exc]
                            for key in self._keys(job)}
            for key, problems in verdicts.items():
                self.attempted += 1
                if problems:
                    self.failures.append((index, key, problems))

    @property
    def failed(self):
        return len(self.failures)

    @staticmethod
    def _keys(job):
        return job.specs if job.command == "report" else (job.id,)

    def _check_job(self, job, exit_code, data):
        shared = []
        first = self.first_bytes.setdefault(job.id, data)
        if data != first:
            shared.append("JSON bytes differ from the first pass")
        try:
            payload = json.loads(data)
        except (TypeError, ValueError):
            return {key: shared + ["no JSON output (exit %s)" % exit_code]
                    for key in self._keys(job)}
        pinned = (self.pinned or {}).get("jobs", {}).get(job.id)
        if pinned is not None and pinned["exit"] != exit_code:
            shared.append("exit code %d, pinned %d" % (exit_code, pinned["exit"]))
        if job.command == "report":
            return self._check_report(job, exit_code, payload, shared, pinned)
        spec = self.workload.specs[job.specs[0]]
        problems = shared + decide_row_problems(spec, job, exit_code, payload)
        if pinned is not None and project_row(payload) != pinned["rows"].get(job.id):
            problems.append("differs from pinned output")
        return {job.id: problems}

    def _check_report(self, job, exit_code, payload, shared, pinned):
        if exit_code != 0:
            shared.append("report exit code %d" % exit_code)
        if payload.get("errors"):
            shared.append("report errors: %s" % payload["errors"])
        rows = {row["name"]: row for row in payload.get("algebras", [])}
        out = {}
        for name in job.specs:
            row = rows.get(name)
            if row is None:
                out[name] = shared + ["missing from the report"]
                continue
            problems = shared + report_row_problems(self.workload.specs[name], row)
            if pinned is not None and project_row(row) != pinned["rows"].get(name):
                problems.append("differs from pinned output")
            out[name] = problems
        return out
