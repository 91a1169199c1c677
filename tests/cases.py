"""Seeded q-matroids for the differential tests.

`composite` draws a uniform or heavy-point leaf, or a free product or
direct sum of two smaller composites, maybe dualized, in scrambled
coordinates.  `table_backed` is the q-matroid that the "ranks" document
of m loads to.  `acceptance_11_factors` are the two factors whose free
product is the stacked lattice of acceptance 11 on F_2^13.
"""

import functools

from qmatroids.constructions import direct_sum, free_product
from qmatroids.qmatroid import QMatroid, transport
from qmatroids.subspace import Subspace, enumerate_subspaces, sum_subspaces

U = QMatroid.uniform


def span(q, n, *rows):
    return Subspace.from_coeff_rows(q, n, rows)


def random_subspace(rng, q, n, d):
    while True:
        s = Subspace.from_coeff_rows(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(d)])
        if s.dim == d:
            return s


def random_interval(rng, q, n):
    """A random pair sub <= sup of subspaces of F_q^n."""
    d1 = rng.randint(0, n)
    d2 = rng.randint(d1, n)
    sub = sup = random_subspace(rng, q, n, d1)
    while sup.dim < d2:
        sup = sup.extend(random_subspace(rng, q, n, 1).rows[0])
    return sub, sup


def random_gl(rng, q, n):
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if Subspace.from_coeff_rows(q, n, rows).dim == n:
            return rows


def heavy_point(rng, q, n, weights):
    """Rank 2, with cyclic flats 0, one rank-1 flat of each weight (the
    flats independent, each of dimension 2 .. n - 2) and F_q^n."""
    while True:
        spaces = [random_subspace(rng, q, n, w) for w in weights]
        if functools.reduce(sum_subspaces, spaces).dim == sum(weights):
            break
    pairs = [(Subspace.zero(q, n), 0)] + [(z, 1) for z in spaces] + [(Subspace.full(q, n), 2)]
    return QMatroid.from_cyclic_flats(q, n, pairs)


def composite(rng, q, n, depth=2):
    if n < 2 or depth == 0 or rng.random() < 0.3:
        shapes = [w for w in ((2,), (3,), (2, 2), (2, 3)) if max(w) <= n - 2 and sum(w) <= n]
        if shapes and rng.random() < 0.5:
            m = heavy_point(rng, q, n, rng.choice(shapes))
        else:
            m = U(q, n, rng.randint(0, n))
    else:
        n1 = rng.randint(1, n - 1)
        a, b = composite(rng, q, n1, depth - 1), composite(rng, q, n - n1, depth - 1)
        m = free_product(a, b, validate=False) if rng.random() < 0.5 else direct_sum(a, b)
    if rng.random() < 0.3:
        m = m.dual()
    return transport(m, random_gl(rng, q, n))


def table_backed(m):
    doc = {"q": m.q, "n": m.n, "ranks": [{"basis": s.coeff_rows(), "r": m.rank(s)}
                                         for s in enumerate_subspaces(m.q, m.n)]}
    return QMatroid.from_dict(doc)


def acceptance_11_factors():
    M = QMatroid.from_cyclic_flats(2, 5, [
        (span(2, 5, (1, 0, 1, 0, 1)), 0),
        (span(2, 5, (1, 0, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 0, 0)), 1),
        (span(2, 5, (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1)), 1),
        (span(2, 5, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)), 1),
        (Subspace.full(2, 5), 2),
    ])
    e = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
    N = QMatroid.from_cyclic_flats(2, 8, [
        (span(2, 8), 0),
        (span(2, 8, *e[:2]), 1),
        (span(2, 8, *e[:4]), 2),
        (span(2, 8, *e[4:]), 3),
        (Subspace.full(2, 8), 4),
    ])
    return M, N
