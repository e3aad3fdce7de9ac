"""Exact symplectic and contact detection.

Both decisions follow the same pattern: write the most general candidate
form with polynomial coefficients, expand the top wedge power symbolically,
and test the single top-degree coefficient for identical vanishing.  A "no"
is therefore a proof, not a sampling failure; a "yes" comes with a rational
witness found on a deterministic grid.

The top coefficient is expanded one perfect matching at a time: each step
wedges on only the 2-form terms that cover the lowest index not yet covered,
which is the row expansion of the Pfaffian.  Each matching is reached once,
so the m! orderings of omega^m are never built.  In dimension 2m there are
C(2m - s, s) monomials after step s, where expanding every ordering keeps
all C(2m, 2s).  Their polynomial coefficients can still grow past memory,
so a step that holds more than PFAFFIAN_BUDGET terms is refused with a
ValueError, which the CLI prints as an `error:` line.

A polynomial with rational coefficients vanishes identically over the reals
iff it is the zero polynomial, so deciding over the formal polynomial ring
is sound and complete for real existence, and rational witnesses suffice.
Both expansions assume d^2 = 0 and check it first with
`cecomplex.require_jacobi`, on the complex they then read.

Whether M x S^1 is symplectic, for a nilmanifold M with Lie algebra g, is
whether g x a is, a the one-dimensional algebra.  `symplectic_decide(g,
times_a=True)` decides it on g's complex (see `_closed_two_forms`), with no
elimination on g x a's larger degree-2 matrix; only a "yes" builds g x a,
to verify its witness there.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .cecomplex import build_complex, cocycle_basis, require_jacobi
from .exterior import Multivector, indices_of, wedge_sign
from .liealg import times_line
from .linalg import integer_maps
from .mpoly import MPoly, find_nonvanishing_point

# The most polynomial terms one step of `_wedge_matchings` may hold:
# abelian:16's Pfaffian, 15!! = 2027025 terms in its last steps, fits, while
# abelian:17 x a would hold 17!!/15 = 2297295 after its sixth step and is
# refused there, before a MemoryError under a 1 GB address-space limit.
PFAFFIAN_BUDGET = 2100000


class SymplecticVerdict(namedtuple("SymplecticVerdict", "admits witness pfaffian_nvars "
                                   "pfaffian_degree certificate_kind")):
    """`witness` is a Multivector or None; `certificate_kind` is "witness"
    or "identically-zero-pfaffian"."""

    __slots__ = ()


class ContactVerdict(namedtuple("ContactVerdict", "admits witness")):
    """`witness` is a Multivector or None."""

    __slots__ = ()


class FormCheckReport(namedtuple("FormCheckReport", "kind checks")):
    """Outcome of checking one claimed form, check by check: `checks` is
    ((name, bool), ...)."""

    __slots__ = ()

    @property
    def passed(self):
        return all(ok for _, ok in self.checks)

    @property
    def failed_checks(self):
        return tuple(name for name, ok in self.checks if not ok)

    def summary(self):
        if self.passed:
            return "pass"
        return "fail: " + ", ".join(self.failed_checks)


def _require_parity(name, dim, kind):
    """A symplectic form needs even dimension, a contact form odd."""
    odd = kind == "contact"
    if dim % 2 != odd:
        raise ValueError("a %s form needs %s dimension; %s has dim %d"
                         % (kind, "odd" if odd else "even", name, dim))


# ---- generic forms with polynomial coefficients -------------------------
#
# A generic combination sum_i t_i beta_i is held as {monomial mask -> MPoly
# term map}: each coefficient maps sorted variable-index tuples to ints.  The
# beta_i come in as L * beta_i with integer coefficients, so every
# coefficient operation is plain integer arithmetic; the top coefficient
# becomes an MPoly and the power of L is divided back out once at the end.


def _generic_combination(rows):
    """sum_i t_i row_i for integer rows {mask: int}."""
    gen = {}
    for i, row in enumerate(rows):
        for mask, num in row.items():
            if num:
                gen.setdefault(mask, {})[(i,)] = num
    return gen


def _wedge_matchings(start, omega, steps, what):
    """start ^ omega^steps / steps!, one perfect matching at a time.

    start and omega map monomial masks to MPoly term maps with integer
    coefficients, and so does the result.  Raises ValueError, naming
    `what`, as soon as a step's result holds more than PFAFFIAN_BUDGET
    terms, counted after each pair of 2-form terms is wedged, so no step
    grows much past it.

    Each step wedges on only the terms of the 2-form omega whose lowest
    index is the lowest index not yet in the monomial.  This is the row
    expansion of the Pfaffian: a top-degree term of start ^ omega^steps is a
    term of start and a perfect matching of the indices it leaves, reached
    in steps! orders, of which exactly one takes the pairs by increasing
    lowest index.  So each matching comes out once and nothing is divided
    out.  Only the full-mask coefficient of the result is that of
    start ^ omega^steps / steps!; the others are partial sums.
    """
    by_low = {}
    for mask, p in omega.items():
        by_low.setdefault(mask & -mask, []).append((mask, p))
    acc = start
    for step in range(1, steps + 1):
        out = {}
        terms = 0
        for m1, p1 in acc.items():
            for m2, p2 in by_low.get(~m1 & (m1 + 1), ()):
                if m1 & m2:
                    continue
                s = wedge_sign(m1, m2)
                dst = out.setdefault(m1 | m2, {})
                terms -= len(dst)
                for k1, c1 in p1.items():
                    for k2, c2 in p2.items():
                        c = c1 * c2 if s > 0 else -(c1 * c2)
                        key = tuple(sorted(k1 + k2))
                        v = dst.get(key, 0) + c
                        if v:
                            dst[key] = v
                        else:
                            del dst[key]
                terms += len(dst)
                if terms > PFAFFIAN_BUDGET:
                    raise ValueError("%s is over the budget of %d terms at step "
                                     "%d of %d" % (what, PFAFFIAN_BUDGET, step, steps))
        acc = {m: p for m, p in out.items() if p}
    return acc


# ---- symplectic ----------------------------------------------------------


def _closed_two_forms(complex_, times_a):
    """The degree-2 cocycle basis of g, or with `times_a` that of g x a.

    On g x a, with y the generator of a, every closed 2-form is
    beta + theta ^ y with beta in Z^2(g) and theta in Z^1(g) (Libermann
    1959; Cappelletti-Montano, De Nicola and Yudin, "A survey on
    cosymplectic geometry", 2013), and `cocycle_basis` of g x a in degree 2
    is exactly the beta and the theta ^ y, merged in the lex order of their
    last monomials.  So g x a's basis is read off g's complex, and neither
    the product nor its complex is built.  A one-dimensional g has no
    degree-2 forms.
    """
    if not times_a:
        return cocycle_basis(complex_, 2)
    n = complex_.dim
    ybit = 1 << n
    basis = [Multivector(n + 1, beta.terms)
             for beta in (cocycle_basis(complex_, 2) if n > 1 else ())]
    basis += [Multivector(n + 1, {m | ybit: c for m, c in theta.terms.items()})
              for theta in cocycle_basis(complex_, 1)]
    basis.sort(key=lambda form: max(indices_of(m) for m in form.terms))
    return basis


def pfaffian_polynomial(g, times_a=False):
    """Pfaffian of the generic closed 2-form, with the basis that defines it.

    Returns (p, basis): basis is the degree-2 cocycle basis beta_1..beta_k,
    and p(t) is the top-degree coefficient of (sum t_i beta_i)^m divided by
    m!, a degree-m polynomial in k variables.  p is identically zero iff no
    closed 2-form on g has full rank.  It is expanded one perfect matching
    of the 2m indices at a time (the Pfaffian's row expansion), so no m!
    orderings are built and none is divided out.

    With `times_a` the 2-forms are those of g x a, of dimension g.dim + 1,
    and both are computed on g's complex (see `_closed_two_forms`): they are
    the same polynomial and basis as on `direct_product(g, abelian:1)`.
    """
    complex_ = build_complex(g)
    require_jacobi(complex_, "the symplectic decision")
    dim = g.dim + times_a
    name = g.name + " x abelian:1" if times_a else g.name
    _require_parity(name, dim, "symplectic")
    m = dim // 2
    basis = _closed_two_forms(complex_, times_a)
    rows, L = integer_maps(b.terms for b in basis)
    omega = _generic_combination(rows)
    acc = _wedge_matchings({0: {(): 1}}, omega, m, "the Pfaffian of " + name)
    p = MPoly(len(basis), acc.get((1 << dim) - 1)) * Fraction(1, L ** m)
    return p, basis


def symplectic_decide(g, times_a=False):
    """Exact decision: does g, or with `times_a` g x a, admit a closed
    2-form of full rank.  A witness on g x a is verified on the product,
    which is built only then."""
    p, basis = pfaffian_polynomial(g, times_a)
    dim = g.dim + times_a
    m = dim // 2
    if p.is_zero:
        return SymplecticVerdict(False, None, len(basis), m,
                                 "identically-zero-pfaffian")
    point = find_nonvanishing_point(p)
    witness = Multivector(dim)
    for t, b in zip(point, basis):
        if t:
            witness = witness + t * b
    witness = _verified(times_line(g) if times_a else g, witness, "symplectic")
    return SymplecticVerdict(True, witness, len(basis), m, "witness")


# ---- contact -------------------------------------------------------------


def contact_polynomial(g):
    """Top coefficient of alpha ^ (d alpha)^n for a generic 1-form alpha.

    alpha = sum s_i x_i over all dual generators; the result is a
    degree-(n+1) polynomial in dim variables, identically zero iff no
    1-form satisfies the contact inequality.  Dimension 1 returns the zero
    polynomial: with no d-alpha factor available the inequality cannot
    encode non-integrability there.  The expansion takes alpha first and
    then one perfect matching of the indices it leaves at a time, which
    gives alpha ^ (d alpha)^n / n!; the result is multiplied back by n!.
    d alpha is read off the complex's degree-1 images L * dx_k, L = scale.
    """
    complex_ = build_complex(g)
    require_jacobi(complex_, "the contact decision")
    _require_parity(g.name, g.dim, "contact")
    if g.dim == 1:
        return MPoly(1)
    n = (g.dim - 1) // 2
    L = complex_.scale
    d_alpha = _generic_combination(complex_.images(1).values())
    alpha = {1 << i: {(i,): 1} for i in range(g.dim)}
    acc = _wedge_matchings(alpha, d_alpha, n, "the contact polynomial of " + g.name)
    return MPoly(g.dim, acc.get((1 << g.dim) - 1)) * Fraction(factorial(n), L ** n)


def contact_decide(g):
    """Exact decision: does g carry a 1-form alpha with alpha^(d alpha)^n != 0."""
    q = contact_polynomial(g)
    if q.is_zero:
        return ContactVerdict(False, None)
    point = find_nonvanishing_point(q)
    witness = Multivector(g.dim, {1 << i: s for i, s in enumerate(point) if s})
    return ContactVerdict(True, _verified(g, witness, "contact"))


def _verified(g, form, kind):
    """form in canonical integer form, checked on g as a claimed form of
    this kind.  It comes from a grid point where the top coefficient does
    not vanish, so a failed check is a bug, raised as AssertionError."""
    witness = form.canonical_integer_form()
    report = verify_claimed_form(g, witness, kind)
    if not report.passed:
        raise AssertionError("witness failed verification: %s" % report.summary())
    return witness


# ---- claimed forms -------------------------------------------------------


def verify_claimed_form(g, form, kind):
    """Check a user-claimed form against its definition, check by check.

    symplectic: d(form) = 0 and form^(dim/2) != 0.
    contact:    form ^ (d form)^((dim-1)/2) != 0, in dimension 3 or more;
                in dimension 1 there is no d-form factor, and the contact
                decision answers "no" there, so a claimed form is an error.
    """
    if form.dim != g.dim:
        raise ValueError("form lives in dimension %d, algebra has %d"
                         % (form.dim, g.dim))
    if kind not in ("symplectic", "contact"):
        raise ValueError("kind must be 'symplectic' or 'contact', got %r" % (kind,))
    _require_parity(g.name, g.dim, kind)
    complex_ = build_complex(g)
    if kind == "symplectic":
        if not form.is_homogeneous(2):
            raise ValueError("symplectic candidate must be homogeneous of degree 2")
        closed = complex_.differential(form).is_zero()
        nondeg = not form.wedge_power(g.dim // 2).is_zero()
        checks = (("closed", closed), ("nondegenerate", nondeg))
    else:
        if g.dim == 1:
            raise ValueError("contact form on one-dimensional %s; contact needs "
                             "dimension 3 or more" % g.name)
        if not form.is_homogeneous(1):
            raise ValueError("contact candidate must be homogeneous of degree 1")
        n = (g.dim - 1) // 2
        top = form.wedge(complex_.differential(form).wedge_power(n))
        checks = (("contact-nondegenerate", not top.is_zero()),)
    return FormCheckReport(kind, checks)
