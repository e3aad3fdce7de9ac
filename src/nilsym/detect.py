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
all C(2m, 2s).

A polynomial with rational coefficients vanishes identically over the reals
iff it is the zero polynomial, so deciding over the formal polynomial ring
is sound and complete for real existence, and rational witnesses suffice.
Both expansions assume d^2 = 0 and check it first with
`cecomplex.require_jacobi`, on the complex they then read.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cecomplex import build_complex, cocycle_basis, require_jacobi
from .exterior import Multivector, indices_of, wedge_sign
from .liealg import direct_product
from .linalg import integer_maps
from .mpoly import MPoly, find_nonvanishing_point


@dataclass(frozen=True)
class SymplecticVerdict:
    admits: bool
    witness: Multivector | None
    pfaffian_nvars: int
    pfaffian_degree: int
    certificate_kind: str  # "witness" | "identically-zero-pfaffian"


@dataclass(frozen=True)
class ContactVerdict:
    admits: bool
    witness: Multivector | None


@dataclass(frozen=True)
class FormCheckReport:
    """Outcome of checking one claimed form, check by check."""

    kind: str
    checks: tuple  # ((name, bool), ...)

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


def _require_parity(g, kind):
    """A symplectic form needs even dimension, a contact form odd."""
    odd = kind == "contact"
    if g.dim % 2 != odd:
        raise ValueError("a %s form needs %s dimension; %s has dim %d"
                         % (kind, "odd" if odd else "even", g.name, g.dim))


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


def _wedge_matchings(start, omega, steps):
    """start ^ omega^steps / steps!, one perfect matching at a time.

    start and omega map monomial masks to MPoly term maps with integer
    coefficients, and so does the result.

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
    for _ in range(steps):
        out = {}
        for m1, p1 in acc.items():
            for m2, p2 in by_low.get(~m1 & (m1 + 1), ()):
                if m1 & m2:
                    continue
                s = wedge_sign(m1, m2)
                dst = out.setdefault(m1 | m2, {})
                for k1, c1 in p1.items():
                    for k2, c2 in p2.items():
                        c = c1 * c2 if s > 0 else -(c1 * c2)
                        key = tuple(sorted(k1 + k2))
                        v = dst.get(key, 0) + c
                        if v:
                            dst[key] = v
                        else:
                            del dst[key]
        acc = {m: p for m, p in out.items() if p}
    return acc


# ---- symplectic ----------------------------------------------------------


def pfaffian_polynomial(g):
    """Pfaffian of the generic closed 2-form, with the basis that defines it.

    Returns (p, basis): basis is the degree-2 cocycle basis beta_1..beta_k,
    and p(t) is the top-degree coefficient of (sum t_i beta_i)^m divided by
    m!, a degree-m polynomial in k variables.  p is identically zero iff no
    closed 2-form on g has full rank.  It is expanded one perfect matching
    of the 2m indices at a time (the Pfaffian's row expansion), so no m!
    orderings are built and none is divided out.
    """
    complex_ = build_complex(g)
    require_jacobi(complex_, "the symplectic decision")
    _require_parity(g, "symplectic")
    m = g.dim // 2
    basis = cocycle_basis(complex_, 2)
    rows, L = integer_maps(b.terms for b in basis)
    omega = _generic_combination(rows)
    acc = _wedge_matchings({0: {(): 1}}, omega, m)
    p = MPoly(len(basis), acc.get((1 << g.dim) - 1)) * Fraction(1, L ** m)
    return p, basis


def symplectic_decide(g):
    """Exact decision: does g admit a closed 2-form of full rank."""
    p, basis = pfaffian_polynomial(g)
    m = g.dim // 2
    if p.is_zero:
        return SymplecticVerdict(False, None, len(basis), m,
                                 "identically-zero-pfaffian")
    point = find_nonvanishing_point(p)
    witness = Multivector(g.dim)
    for t, b in zip(point, basis):
        if t:
            witness = witness + t * b
    witness = witness.canonical_integer_form()
    report = verify_claimed_form(g, witness, "symplectic")
    if not report.passed:  # the grid point certifies this cannot happen
        raise AssertionError("witness failed verification: %s" % report.summary())
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
    _require_parity(g, "contact")
    if g.dim == 1:
        return MPoly(1)
    n = (g.dim - 1) // 2
    L = complex_.scale
    d_alpha = _generic_combination(complex_.images(1).values())
    alpha = {1 << i: {(i,): 1} for i in range(g.dim)}
    acc = _wedge_matchings(alpha, d_alpha, n)
    return MPoly(g.dim, acc.get((1 << g.dim) - 1)) * Fraction(factorial(n), L ** n)


def contact_decide(g):
    """Exact decision: does g carry a 1-form alpha with alpha^(d alpha)^n != 0."""
    q = contact_polynomial(g)
    if q.is_zero:
        return ContactVerdict(False, None)
    point = find_nonvanishing_point(q)
    witness = Multivector(g.dim, {1 << i: s for i, s in enumerate(point) if s})
    witness = witness.canonical_integer_form()
    report = verify_claimed_form(g, witness, "contact")
    if not report.passed:
        raise AssertionError("witness failed verification: %s" % report.summary())
    return ContactVerdict(True, witness)


# ---- claimed forms and products ------------------------------------------


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
    _require_parity(g, kind)
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


def _split_product_factor(w, g, label):
    """Break a witness on g x a into (l, y-coefficient, pure-g terms)."""
    if w.dim != g.dim + 1:
        raise ValueError("%s must live on %s x a (dimension %d, got %d)"
                         % (label, g.name, g.dim + 1, w.dim))
    if not w.is_homogeneous(2):
        raise ValueError("%s must be a homogeneous 2-form" % label)
    ybit = 1 << g.dim
    cross = [(m, c) for m, c in w.terms.items() if m & ybit]
    if len(cross) != 1:
        raise ValueError("%s must contain exactly one x_l^y term, found %d"
                         % (label, len(cross)))
    (mask, c1), = cross
    l = indices_of(mask ^ ybit)[0]
    dxl = build_complex(g).generator_differentials[l - 1]
    if not dxl.is_zero():
        raise ValueError("%s pairs y with x%d, but dx%d != 0 on %s"
                         % (label, l, l, g.name))
    rest = {m: c for m, c in w.terms.items() if not m & ybit}
    return l, c1, rest


def product_symplectic_witness(wg, wh, g, h):
    """Splice two `sum x_i x_j + x_l y`-shaped witnesses into one on g x h.

    wg and wh are symplectic witnesses on g x a and h x a whose single
    y-term pairs y with a closed generator; the result replaces the two
    y-legs with one cross term x_l ^ y_r and is verified closed and
    nondegenerate before being returned.
    """
    l, c1, g_terms = _split_product_factor(wg, g, "wg")
    r, c2, h_terms = _split_product_factor(wh, h, "wh")
    product = direct_product(g, h)
    terms = dict(g_terms)
    for mask, c in h_terms.items():
        terms[mask << g.dim] = c
    cross = (1 << (l - 1)) | (1 << (g.dim + r - 1))
    terms[cross] = c1 * c2
    form = Multivector(product.dim, terms)
    report = verify_claimed_form(product, form, "symplectic")
    if not report.passed:
        raise ValueError("spliced form is not symplectic on %s (%s); "
                         "check the input witnesses" % (product.name, report.summary()))
    return form
