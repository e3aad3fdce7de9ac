"""Seeded inputs for the three benchmark workloads.

Every algebra is generated here, with its structure constants kept as a
`Spec`, so the output checker can re-derive facts about it without asking
nilsym.  The seed decides everything a workload feeds the CLI: for `ladder`
and `decide` it only shuffles file placement and job order (their algebras
are fixed ladder rungs), for `many-small` it also draws the structure
constants, within a fixed mix of families and dimensions.

Why these workloads (each planned optimisation works mostly on one of them
and little on another):

- ladder: a few mid-sized algebras through `nilsym report`; Betti numbers by
  dense Fraction elimination dominate, the decisions are a small share.
- decide: single-algebra `symplectic` / `contact` runs with no Betti numbers;
  the Pfaffian expansion and the grid witness search dominate, split into a
  "yes" half and a "no" half.
- many-small: about 200 algebras of dimension 4-8 through `nilsym report`;
  many tiny eliminations, so per-call overhead and the report thread pool
  show, and no single layer dominates.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("ladder", "decide", "many-small")


@dataclass(frozen=True)
class Spec:
    """One algebra: brackets {(i, j): {k: Fraction}} with i < j, 1-based.

    `known` holds verdicts that are settled mathematically for the family:
    "symplectic" refers to g when dim is even and to g x a when it is odd.
    """

    name: str
    dim: int
    brackets: dict
    family: str
    forms: tuple = ()
    known: dict = field(default_factory=dict)

    def catalog_text(self):
        lines = ["algebra %s" % self.name, "dim %d" % self.dim]
        for (i, j) in sorted(self.brackets):
            terms = []
            for k, c in sorted(self.brackets[(i, j)].items()):
                body = "e%d" % k if abs(c) == 1 else "%s*e%d" % (abs(c), k)
                if not terms:
                    terms.append("-" + body if c < 0 else body)
                else:
                    terms.append(("- " if c < 0 else "+ ") + body)
            lines.append("bracket [%d,%d] = %s" % (i, j, " ".join(terms)))
        for kind, expr in self.forms:
            lines.append('form %s "%s"' % (kind, expr))
        lines.append("end")
        return "\n".join(lines)


@dataclass(frozen=True)
class Job:
    """One CLI call of a pass; "{dir}" in argv stands for the input directory.

    For `report` jobs `specs` lists every algebra in the directory; for
    `symplectic` / `contact` it names the one algebra g (before any x a).
    """

    id: str
    command: str
    argv: tuple
    specs: tuple
    times_a: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    files: dict   # catalog file name -> text
    specs: dict   # algebra name -> Spec
    jobs: list    # the CLI calls of one pass, in order

    @property
    def algebras_per_pass(self):
        return sum(len(job.specs) if job.command == "report" else 1
                   for job in self.jobs)

    def write(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for fname, text in self.files.items():
            (directory / fname).write_text(text, encoding="utf-8")


# ---- families -------------------------------------------------------------


def _fraction(rng):
    """A small nonzero rational, so witnesses stay readable."""
    return Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 1, 2, 3)))


def standard_symplectic_form(n):
    """x1^x2 + x3^x4 + ..., ending in xn^y when n is odd."""
    pairs = ["x%d^x%d" % (2 * i + 1, 2 * i + 2) for i in range(n // 2)]
    if n % 2:
        pairs.append("x%d^y" % n)
    return " + ".join(pairs)


def abelian(n, name=None, forms=()):
    known = {"symplectic": True}
    if n % 2 and n >= 3:
        known["contact"] = False
    return Spec(name or "abelian:%d" % n, n, {}, "abelian", forms, known)


def filiform(n, name=None, scales=None):
    scales = scales or [Fraction(1)] * (n - 2)
    brackets = {(1, i): {i + 1: scales[i - 2]} for i in range(2, n)}
    return Spec(name or "filiform:%d" % n, n, brackets, "filiform")


def heisenberg(n, name=None, scales=None):
    """Heisenberg algebra of odd dimension n, [e_2i, e_2i+1] = c_i e1."""
    k = (n - 1) // 2
    scales = scales or [Fraction(1)] * k
    brackets = {(2 * i, 2 * i + 1): {1: scales[i - 1]} for i in range(1, k + 1)}
    # g x a admits a symplectic form only for the 3-dimensional algebra
    # (Kodaira-Thurston); every Heisenberg algebra is contact with x1.
    return Spec(name or "heisenberg:%d" % n, n, brackets, "heisenberg",
                known={"symplectic": k == 1, "contact": True})


def times_a(spec, name=None, forms=()):
    """The product with a line, as one catalog entry of dimension dim + 1."""
    known = {"symplectic": spec.known["symplectic"]} \
        if "symplectic" in spec.known else {}
    return Spec(name or spec.name + "xa", spec.dim + 1, spec.brackets,
                spec.family + "xa", forms, known)


def g13457c(name="g13457C"):
    brackets = {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1},
                (1, 6): {7: 1}, (2, 5): {7: 1}, (3, 4): {7: -1}}
    brackets = {key: {k: Fraction(c) for k, c in row.items()}
                for key, row in brackets.items()}
    # g x a is the published non-symplectic example.
    return Spec(name, 7, brackets, "13457C", known={"symplectic": False})


def two_step(rng, n, center, name):
    """Random 2-step nilpotent algebra: 60% of the brackets of a base block
    land in a central block of the given size, so Jacobi holds by
    construction.  Which brackets and constants is random; their number is
    not, which keeps the work per algebra steady across seeds."""
    base = n - center
    pairs = [(i, j) for i in range(1, base + 1) for j in range(i + 1, base + 1)]
    brackets = {}
    for pair in sorted(rng.sample(pairs, max(1, round(0.6 * len(pairs))))):
        targets = rng.sample(range(base + 1, n + 1), rng.randint(1, center))
        brackets[pair] = {k: _fraction(rng) for k in sorted(targets)}
    return Spec(name, n, brackets, "two-step")


# ---- workloads -------------------------------------------------------------


def _spread(rng, specs, nfiles):
    """Shuffle specs over nfiles catalog files (all non-empty)."""
    order = list(specs)
    rng.shuffle(order)
    files = {}
    for idx, spec in enumerate(order):
        files.setdefault("part%d.cat" % (idx % nfiles), []).append(spec)
    return {f: "\n\n".join(s.catalog_text() for s in group) + "\n"
            for f, group in files.items()}


def report_workload(name, seed, rng, specs, nfiles):
    files = _spread(rng, specs, nfiles)
    job = Job("report", "report", ("report", "{dir}"),
              tuple(sorted(s.name for s in specs)))
    return Workload(name, seed, files, {s.name: s for s in specs}, [job])


def ladder(seed):
    # Larger ROADMAP rungs (heisenberg:11 x a, filiform:12 x a) take from
    # 15 s to minutes each with dense elimination, too long for one pass.
    rng = random.Random(seed)
    specs = [filiform(8), filiform(9), filiform(10),
             times_a(filiform(7)), times_a(filiform(9)),
             heisenberg(7), heisenberg(9),
             times_a(heisenberg(7)), times_a(heisenberg(9)),
             abelian(8), abelian(10), times_a(g13457c("13457C"))]
    return report_workload("ladder", seed, rng, specs, 3)


def decide(seed):
    rng = random.Random(seed)
    filiforms = [filiform(n) for n in (10, 11, 12, 13)]
    catalog = {"filiform.cat": "\n\n".join(s.catalog_text()
                                           for s in filiforms) + "\n"}
    specs = {s.name: s for s in filiforms}
    for s in (abelian(10), abelian(12), heisenberg(9), heisenberg(11),
              heisenberg(13), g13457c()):
        specs[s.name] = s

    def source(spec_name):
        if spec_name.startswith("filiform:"):
            return ("{dir}/filiform.cat", "--name", spec_name)
        return ("--builtin", spec_name)

    jobs = []
    for spec_name, with_a in (("abelian:10", False), ("abelian:12", False),
                              ("filiform:10", False), ("filiform:12", False),
                              ("filiform:11", True),
                              ("heisenberg:9", True), ("heisenberg:11", True),
                              ("heisenberg:13", True), ("g13457C", True)):
        argv = ("symplectic",) + source(spec_name) + (("--times-a",) if with_a else ())
        jobs.append(Job("symplectic %s%s" % (spec_name, " x a" if with_a else ""),
                        "symplectic", argv, (spec_name,), with_a))
    for spec_name in ("heisenberg:9", "heisenberg:11", "heisenberg:13",
                      "filiform:11", "filiform:13", "g13457C"):
        jobs.append(Job("contact %s" % spec_name, "contact",
                        ("contact",) + source(spec_name), (spec_name,)))
    rng.shuffle(jobs)
    return Workload("decide", seed, catalog, specs, jobs)


# Algebras per dimension: (two-step, filiform, heisenberg, abelian), about
# half two-step.  The mix is fixed and only constants are drawn, so every
# seed costs about the same; higher dimensions are thinner because one
# algebra of dimension 8 costs about as much as 80 of dimension 4.
MANY_SMALL_MIX = {4: (27, 11, 8, 8), 5: (27, 11, 8, 8), 6: (23, 9, 7, 7),
                  7: (17, 7, 5, 5), 8: (6, 2, 2, 2)}


def many_small(seed):
    rng = random.Random(seed)
    specs = []

    def name():
        return "s%03d" % len(specs)

    for n, (n_two_step, n_filiform, n_heisenberg, n_abelian) in MANY_SMALL_MIX.items():
        for i in range(n_two_step):
            specs.append(two_step(rng, n, 1 + i % min(3, n - 2), name()))
        for _ in range(n_filiform):
            specs.append(filiform(n, name(), [_fraction(rng) for _ in range(n - 2)]))
        for _ in range(n_heisenberg):
            if n % 2:
                h = heisenberg(n, name(), [_fraction(rng) for _ in range(n // 2)])
                specs.append(Spec(h.name, n, h.brackets, h.family,
                                  (("contact", "x1"),), h.known))
            else:
                h = heisenberg(n - 1, name(), [_fraction(rng)
                                               for _ in range(n // 2 - 1)])
                # Kodaira-Thurston (n = 4) is symplectic; larger ones are not.
                forms = (("symplectic", "x1^x2 + x3^x4"),) if n == 4 else ()
                specs.append(times_a(h, h.name, forms))
        for _ in range(n_abelian):
            specs.append(abelian(n, name(), (("symplectic",
                                              standard_symplectic_form(n)),)))
    return report_workload("many-small", seed, rng, specs, 8)


def build(name, seed):
    generators = {"ladder": ladder, "decide": decide, "many-small": many_small}
    if name not in generators:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (name, ", ".join(WORKLOADS)))
    return generators[name](seed)
