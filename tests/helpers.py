"""Shared test utilities: seeded random generators and small independent
oracles.  The oracles deliberately reimplement their targets by a different
route (permutation expansion, fraction-free elimination, full-row
elimination, brute-force enumeration) so the production path is checked
against something it does not share code with; none imports
`nilsym.linalg`.  `Multivector` has no arithmetic, so the tests build and
combine forms with `form`, `combine` and `wedge` here, and
`canonical_integer_form` is the oracle for the witnesses' normal form.
"""

import itertools
import math
from fractions import Fraction

from nilsym import (LieAlgebra, MPoly, Multivector, UcsProfile, indices_of,
                    mask_of, wedge_sign)


def rnd_fraction(rng, num=9, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rnd_nonzero_fraction(rng, num=9, den=4):
    while True:
        f = rnd_fraction(rng, num, den)
        if f:
            return f


def form(dim, terms):
    """The Multivector sum c x_I over {I: c}, each I a tuple of 1-based
    indices in increasing order."""
    return Multivector(dim, {mask_of(ix): c for ix, c in terms.items()})


def combine(*pairs):
    """sum c * f over (c, f) pairs of forms of one ambient dimension, summed
    term by term.  Raises ValueError on a dimension mismatch."""
    dims = {f.dim for _, f in pairs}
    if len(dims) != 1:
        raise ValueError("need forms of one ambient dimension, got %s" % sorted(dims))
    acc = {}
    for c, f in pairs:
        for m, v in f.terms.items():
            acc[m] = acc.get(m, 0) + c * v
    return Multivector(dims.pop(), acc)


def wedge(a, b):
    """a ^ b.  Each product of monomials is signed by the parity of the
    inversions of its concatenated index tuple, counted pair by pair, not
    by `wedge_sign`'s bit counts.  Raises ValueError on a dimension
    mismatch."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch: %d vs %d" % (a.dim, b.dim))
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if m1 & m2:
                continue
            ix = indices_of(m1) + indices_of(m2)
            inversions = sum(1 for s, t in itertools.combinations(ix, 2) if s > t)
            acc[m1 | m2] = acc.get(m1 | m2, 0) + (-1) ** inversions * c1 * c2
    return Multivector(a.dim, acc)


def canonical_integer_form(f):
    """f rescaled, in Fractions, to coprime integer coefficients with the
    coefficient of its lex-least monomial positive; the zero form is
    returned as it is.  The oracle for the witnesses' canonical form."""
    if not f.terms:
        return f
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    scale = Fraction(den, math.gcd(*(c.numerator * (den // c.denominator)
                                     for c in f.terms.values())))
    if f.terms[f.monomials()[0]] < 0:
        scale = -scale
    return combine((scale, f))


def random_multivector(rng, dim, nterms=4, degrees=None):
    terms = {}
    for _ in range(nterms):
        if degrees is None:
            deg = rng.randint(0, dim)
        else:
            deg = rng.choice(degrees)
        idxs = sorted(rng.sample(range(1, dim + 1), deg))
        terms[mask_of(idxs)] = rnd_fraction(rng)
    return Multivector(dim, terms)


def random_mpoly(rng, nvars, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        key = sorted(rng.randrange(nvars) for _ in range(rng.randint(0, maxdeg)))
        terms[tuple(key)] = rnd_fraction(rng)
    return MPoly(nvars, terms)


def random_invertible(rng, n, nops=None):
    """Random invertible rational matrix built from elementary row ops,
    so invertibility holds by construction rather than by a det call."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(nops if nops is not None else 3 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = Fraction(rng.choice((-2, -1, 1, 2)))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [rng.choice((Fraction(-1), Fraction(2))) * a for a in m[i]]
    return m


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def brute_det(rows):
    """Determinant by permutation expansion (use only for small n)."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i, p in enumerate(perm):
            prod *= rows[i][p]
        total += sign * prod
    return total


def oracle_rref(rows):
    """Reduced row echelon form by full-row updates: at each pivot the
    whole pivot row is scaled and subtracted, as whole new rows, from every
    other row with a nonzero entry in the pivot column.  Returns
    (reduced_rows, pivot_columns); the input is not modified."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
    return m, pivots


def oracle_kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} read off `oracle_rref`: one vector per free
    column f, in increasing f, with 1 at f, minus the reduced column f at
    the pivots, and 0 elsewhere."""
    red, pivots = oracle_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def residual(red, pivots, v):
    """Reduce v against an rref row space; zero iff v lies in the span."""
    w = [Fraction(x) for x in v]
    for j, p in enumerate(pivots):
        if w[p] != 0:
            f = w[p]
            row = red[j]
            w = [a - f * b for a, b in zip(w, row)]
    return w


def oracle_inverse(rows):
    """Exact inverse by `oracle_rref` of [A | I]; raises ValueError on a
    singular matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = oracle_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def bracket(g, v, w):
    """[v, w] for coefficient vectors v, w of length dim, read off
    `bracket_basis` over the pairs i < j."""
    n = g.dim
    out = [Fraction(0)] * n
    for i, j in itertools.combinations(range(1, n + 1), 2):
        f = v[i - 1] * w[j - 1] - v[j - 1] * w[i - 1]
        if f:
            for k, c in g.bracket_basis(i, j).items():
                out[k - 1] += f * c
    return out


def change_basis(g, matrix):
    """Transport structure constants through an invertible rational matrix.

    Row i of `matrix` expresses the new basis vector f_{i+1} in the old
    basis, so scaling e1 by 2 halves every constant targeting e1.  The
    result keeps g's name and labels.  Raises ValueError on a singular or
    misshapen matrix.
    """
    n = g.dim
    rows = [[Fraction(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix must be %dx%d" % (n, n))
    inv = oracle_inverse(rows)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            u = bracket(g, rows[i], rows[j])
            brackets[(i + 1, j + 1)] = {
                k + 1: sum(u[l] * inv[l][k] for l in range(n)) for k in range(n)}
    return LieAlgebra(g.name, n, brackets, dual_labels=g.dual_labels)


def oracle_ucs(g):
    """Upper central series dims by dense kernels: each
    C_{i+1} = {x : [x, e_j] in C_i for all j} is the kernel of the stacked
    conditions obtained by reducing [e_i, e_j] against an rref basis of C_i."""
    n = g.dim

    def dense_bracket(i, j):
        v = [Fraction(0)] * n
        for k, c in g.bracket_basis(i, j).items():
            v[k - 1] = c
        return v

    # ad-columns: w[i][j] = [e_{i+1}, e_{j+1}] as a length-n vector
    w = [[dense_bracket(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

    current = []  # rows spanning C_i; starts at C_0 = 0
    dims = []
    while True:
        red, pivots = oracle_rref(current)
        # [x, e_j] in C_i is linear in x; one scalar row per coordinate of
        # the residual of [e_i, e_j] against the current rref basis.
        rows = []
        for j in range(n):
            res = [residual(red, pivots, w[i][j]) for i in range(n)]
            for coord in range(n):
                row = [res[i][coord] for i in range(n)]
                if any(row):
                    rows.append(row)
        new_basis = oracle_kernel_basis(rows, n)
        new_dim = len(new_basis)
        if dims and new_dim == dims[-1]:
            break
        dims.append(new_dim)
        if new_dim == 0 or new_dim == n:
            break
        current = new_basis
    return UcsProfile(tuple(dims), n)


def in_row_span(rows, v):
    """Whether v lies in the row span, by `oracle_rref` and residual."""
    red, pivots = oracle_rref(rows)
    return all(x == 0 for x in residual(red, pivots, v))


def det(rows):
    """Exact determinant by fraction elimination; the oracle for
    "Pf^2 = det" at sizes where brute_det is too slow."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    m = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        pivot = m[c][c]
        out *= pivot
        inv = 1 / pivot
        row_c = m[c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], row_c)]
    return out


def skew_gram_matrix(form):
    """The antisymmetric matrix [form(e_i, e_j)] of a 2-form; with `det`
    it is the oracle for "Pf^2 = det"."""
    if not form.is_homogeneous(2):
        raise ValueError("need a homogeneous 2-form")
    n = form.dim
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for mask, c in form.terms.items():
        i, j = indices_of(mask)
        matrix[i - 1][j - 1] = c
        matrix[j - 1][i - 1] = -c
    return matrix


def oracle_rank(rows):
    """Rank by an elimination written independently of nilsym.linalg:
    each row is scaled to integers by the lcm of its denominators, then
    fraction-free (Bareiss) elimination with no pivot normalization.  Each
    cross-multiplied entry is divided exactly by the previous pivot, so the
    entries stay minors of the scaled input instead of doubling in length
    at every step, as plain cross-multiplication lets them."""
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        m.append([int(x * scale) for x in row])
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        a = m[r][c]
        for i in range(r + 1, len(m)):
            b = m[i][c]
            m[i] = [(a * y - b * x) // prev for x, y in zip(m[r], m[i])]
        prev = a
        r += 1
        if r == len(m):
            break
    return r


def oracle_jacobi_violation(g):
    """First triple (i,j,k), i<j<k, whose Jacobiator
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is nonzero, by
    evaluating brackets on dense unit vectors; None when Jacobi holds."""
    n = g.dim
    basis = [[Fraction(1 if t == i else 0) for t in range(n)] for i in range(n)]
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        total = [Fraction(0)] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = bracket(g, basis[a - 1], basis[b - 1])
            outer = bracket(g, inner, basis[c - 1])
            total = [x + y for x, y in zip(total, outer)]
        if any(total):
            return (i, j, k)
    return None


def brute_grid_first_nonzero(p):
    """Full lexicographic enumeration of {0..d}^nvars; first nonzero point."""
    d = p.total_degree()
    for point in itertools.product(range(d + 1), repeat=p.nvars):
        if p.evaluate([Fraction(v) for v in point]) != 0:
            return tuple(Fraction(v) for v in point)
    return None


def wedge_power(omega, k):
    """k-fold wedge of omega with itself, every ordering expanded; the 0th
    power is 1.  The oracle for the rank checks of `verify_claimed_form`."""
    if k < 0:
        raise ValueError("wedge power must be >= 0")
    out = Multivector(omega.dim, {0: 1})
    for _ in range(k):
        out = wedge(out, omega)
    return out


def classic_pfaffian_4x4(a, b, c, d, e, f):
    """Pfaffian of [[0,a,b,c],[-a,0,d,e],[-b,-d,0,f],[-c,-e,-f,0]]."""
    return a * f - b * e + c * d


def oracle_pfaffian(basis, dim, m):
    """Top coefficient of (sum t_i beta_i)^m / m! by brute expansion over
    ordered index tuples, sharing nothing with the generic-form machinery."""
    k = len(basis)
    full_mask = (1 << dim) - 1
    terms = {}
    for combo in itertools.product(range(k), repeat=m):
        prod = Multivector(dim, {0: 1})
        for i in combo:
            prod = wedge(prod, basis[i])
        c = prod.terms.get(full_mask)
        if c:
            key = tuple(sorted(combo))
            terms[key] = terms.get(key, Fraction(0)) + c
    cleaned = {e: v / math.factorial(m) for e, v in terms.items() if v}
    return MPoly(k, cleaned)


def oracle_contact_poly(g):
    """Top coefficient of alpha ^ (d alpha)^n by brute expansion over
    ordered generator tuples."""
    n2 = g.dim
    n = (n2 - 1) // 2
    diffs = oracle_generator_differentials(g)
    full_mask = (1 << n2) - 1
    terms = {}
    for i0 in range(n2):
        for combo in itertools.product(range(n2), repeat=n):
            prod = Multivector(n2, {1 << i0: 1})
            for i in combo:
                prod = wedge(prod, diffs[i])
            c = prod.terms.get(full_mask)
            if c:
                key = tuple(sorted((i0,) + combo))
                terms[key] = terms.get(key, Fraction(0)) + c
    return MPoly(n2, {e: v for e, v in terms.items() if v})


def filiform(n):
    """The standard filiform algebra [e1, ei] = e_{i+1}, as in test_filiform."""
    return LieAlgebra("filiform:%d" % n, n,
                      {(1, i): {i + 1: 1} for i in range(2, n)})


def oracle_generator_differentials(g):
    """[dx_1, ..., dx_n] with dx_k = -sum_{i<j} c_ij^k x_i x_j, read off
    g.brackets as Fraction Multivectors, without the complex."""
    diffs = [{} for _ in range(g.dim)]
    for (i, j), row in g.brackets.items():
        for k, c in row.items():
            diffs[k - 1][mask_of((i, j))] = -c
    return [Multivector(g.dim, d) for d in diffs]


def oracle_differential(g, f):
    """d(f) as the graded-derivation extension of g's generator
    differentials, in Fractions, sharing nothing with the complex: on a
    monomial x_{i_1}..x_{i_p} it is
    sum_t (-1)^(t-1) dx_{i_t} ^ (monomial with i_t removed)."""
    acc = {}
    diffs = oracle_generator_differentials(g)
    for mask, coeff in f.terms.items():
        for t, i in enumerate(indices_of(mask)):
            rest = mask ^ (1 << (i - 1))
            c0 = coeff if t % 2 == 0 else -coeff
            for dmask, dcoeff in diffs[i - 1].terms.items():
                s = wedge_sign(dmask, rest)
                if s:
                    m = dmask | rest
                    acc[m] = acc.get(m, Fraction(0)) + s * c0 * dcoeff
    return Multivector(g.dim, acc)


def oracle_d_squared_vanishes(g):
    """d(dx_k) = 0 for every k, computed with `oracle_differential` rather
    than read off the complex's d^2 verdict."""
    return not any(oracle_differential(g, dxk)
                   for dxk in oracle_generator_differentials(g))


def oracle_cocycle_basis(g, degree):
    """Basis of the closed degree-p forms: `oracle_kernel_basis` of the
    dense matrix of d over lex-ordered monomials, its columns built by
    `oracle_differential`, one vector per free column in lex order."""
    n = g.dim
    domain = [mask_of(ix) for ix in itertools.combinations(range(1, n + 1), degree)]
    codomain = [mask_of(ix) for ix in itertools.combinations(range(1, n + 1), degree + 1)]
    columns = [oracle_differential(g, Multivector(n, {m: 1})) for m in domain]
    matrix = [[col.terms.get(m, Fraction(0)) for col in columns] for m in codomain]
    return [Multivector(n, {m: x for m, x in zip(domain, v) if x})
            for v in oracle_kernel_basis(matrix, len(domain))]


def random_nilpotent(rng, dim):
    """A seeded nilpotent algebra built by iterated central extension
    (Skjelbred and Sund, 1978): from abelian:2, each new generator e_k gets
    [e_i, e_j] += beta_ij e_k for a random closed 2-form beta, found by
    `oracle_cocycle_basis`, so the Jacobi identity holds by construction."""
    brackets = {}
    for k in range(3, dim + 1):
        g = LieAlgebra("rand", k - 1, brackets)
        for beta in oracle_cocycle_basis(g, 2):
            coeff = rng.choice((0, 0, 1, -1, 2))
            if not coeff:
                continue
            for mask, x in beta.terms.items():
                row = brackets.setdefault(indices_of(mask), {})
                row[k] = row.get(k, 0) + coeff * x
    return LieAlgebra("rand:%d" % dim, dim, brackets)


def splice_line_witnesses(w, n):
    """Two copies of a symplectic witness w on g x a, n = dim g, whose one
    y-term is c x_l ^ y with dx_l = 0, as one 2-form on g x g: each copy
    keeps its pure-g terms and the two y-legs become c^2 x_l ^ x'_l."""
    ybit = 1 << n
    (mask, c), = [(m, c) for m, c in w.terms.items() if m & ybit]
    leg = mask ^ ybit
    terms = {leg | leg << n: c * c}
    for m, v in w.terms.items():
        if not m & ybit:
            terms[m] = terms[m << n] = v
    return Multivector(2 * n, terms)
