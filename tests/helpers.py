"""Shared test utilities: seeded random generators and small independent
oracles.  The oracles deliberately reimplement their targets by a different
route (permutation expansion, fraction-free elimination, brute-force
enumeration) so the production path is checked against something it does
not share code with.
"""

import itertools
from fractions import Fraction

from nilsym import MPoly, Multivector, mask_of


def rnd_fraction(rng, num=9, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rnd_nonzero_fraction(rng, num=9, den=4):
    while True:
        f = rnd_fraction(rng, num, den)
        if f:
            return f


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
        exps = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rnd_fraction(rng)
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


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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


def oracle_rank(rows):
    """Rank by an elimination written independently of nilsym.linalg:
    no pivot normalization, elimination by cross-multiplication."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [a * y - b * x for x, y in zip(m[r], m[i])]
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
            inner = g.bracket(basis[a - 1], basis[b - 1])
            outer = g.bracket(inner, basis[c - 1])
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


def classic_pfaffian_4x4(a, b, c, d, e, f):
    """Pfaffian of [[0,a,b,c],[-a,0,d,e],[-b,-d,0,f],[-c,-e,-f,0]]."""
    return a * f - b * e + c * d


def oracle_pfaffian(basis, dim, m):
    """Top coefficient of (sum t_i beta_i)^m / m! by brute expansion over
    ordered index tuples, sharing nothing with the generic-form machinery."""
    import math

    k = len(basis)
    full = Multivector.monomial(dim, tuple(range(1, dim + 1)))
    full_mask = next(iter(full.terms))
    terms = {}
    for combo in itertools.product(range(k), repeat=m):
        prod = Multivector.unit(dim)
        for i in combo:
            prod = prod.wedge(basis[i])
        c = prod.terms.get(full_mask)
        if c:
            exps = [0] * k
            for i in combo:
                exps[i] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + c
    cleaned = {e: v / math.factorial(m) for e, v in terms.items() if v}
    return MPoly(k, cleaned)


def oracle_contact_poly(g):
    """Top coefficient of alpha ^ (d alpha)^n by brute expansion over
    ordered generator tuples."""
    from nilsym import build_complex

    n2 = g.dim
    n = (n2 - 1) // 2
    diffs = build_complex(g).generator_differentials
    full_mask = (1 << n2) - 1
    terms = {}
    for i0 in range(n2):
        for combo in itertools.product(range(n2), repeat=n):
            prod = Multivector.generator(n2, i0 + 1)
            for i in combo:
                prod = prod.wedge(diffs[i])
            c = prod.terms.get(full_mask)
            if c:
                exps = [0] * n2
                exps[i0] += 1
                for i in combo:
                    exps[i] += 1
                key = tuple(exps)
                terms[key] = terms.get(key, Fraction(0)) + c
    return MPoly(n2, {e: v for e, v in terms.items() if v})
