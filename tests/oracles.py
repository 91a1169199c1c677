"""Slow reference routes, used only by the tests.

`closure_pinchpoints` is the definition of the primary flag: close the
cyclic flats, 0 and E under pairwise sums and intersections until
nothing changes, then keep the members comparable to every member.
`separator_pinchpoints` walks every free separator of the lattice
instead and keeps those that equal the sum of the generators below them
or the intersection of those above.

`rank_by_min_formula` is the certificate rank by one sum per cyclic
flat: r(A) = min f(Z) + dim(A + Z) - dim Z.

`search_x_by_rank_table` is the coupling search by whole rank tables:
a candidate passes when its rank on every nonzero subspace equals the
free-product target's.  `linear_set_profile_by_stream` profiles a linear
set by combining the generators afresh for every coefficient vector.
"""

import functools
import itertools

from qmatroids.constructions import free_product
from qmatroids.factorization import free_separators
from qmatroids.gf import Matrix
from qmatroids.qmatroid import QMatroid
from qmatroids.representation import LinearSetProfile, _combine
from qmatroids.subspace import (
    Subspace,
    enumerate_subspaces,
    intersect_subspaces,
    lattice_size,
    sum_subspaces,
)


def generators(m):
    """The distinct cyclic flats of m together with 0 and E."""
    return {z for z, _ in m.certificates()} | {Subspace.zero(m.q, m.n), Subspace.full(m.q, m.n)}


def sum_intersection_closure(m):
    """The generators closed under pairwise sums and intersections,
    sorted by dimension.  Each member is paired with every member present
    when it is taken off the work list; a closure that reaches the size of
    the whole lattice is complete."""
    current = generators(m)
    todo = list(current)
    while todo and len(current) < lattice_size(m.q, m.n):
        a = todo.pop()
        for b in list(current):
            for c in (sum_subspaces(a, b), intersect_subspaces(a, b)):
                if c not in current:
                    current.add(c)
                    todo.append(c)
    return sorted(current, key=Subspace.sort_key)


def closure_pinchpoints(m):
    """Members of the closure comparable to every member, by dimension."""
    spaces = sum_intersection_closure(m)
    return [x for x in spaces if all(x.contains(y) or y.contains(x) for y in spaces)]


def separator_pinchpoints(m):
    """Free separators x with x = sum{z <= x} or x = meet{z >= x} over the
    generators, by dimension."""
    gens = generators(m)
    out = []
    for x in free_separators(m):
        below = [z for z in gens if x.contains(z)]
        above = [z for z in gens if z.contains(x)]
        if (functools.reduce(sum_subspaces, below) == x
                or functools.reduce(intersect_subspaces, above) == x):
            out.append(x)
    return out


def rank_by_min_formula(m, a):
    """r(a) of a certificate-backed m, one sum_subspaces per cyclic flat."""
    return min(f + sum_subspaces(a, z).dim - z.dim for z, f in m.certificates())


def _rank_matches(field, cols, rows, want: int, k: int) -> bool:
    """Whether the images of `rows` span dimension exactly `want`.

    Combines rows lazily and stops as soon as the answer is decided:
    a rank above `want` fails outright, and hitting `want` with the
    ambient dimension `k` cannot be undone by more rows.
    """
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for row in rows:
        v = list(_combine(field, cols, row))
        for p, b in zip(pivots, basis):
            c = v[p]
            if c:
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        if len(basis) == want:
            return False
        inv = field.inv(v[p])
        basis.append(tuple(field.mul(inv, x) for x in v))
        pivots.append(p)
        if len(basis) == want == k:
            return True
    return len(basis) == want


def search_x_by_rank_table(G1, G2):
    """The coupling blocks X, in search_x's order, for which (G1 X; 0 G2)
    has the free product's rank on every nonzero subspace."""
    field, q = G1.field, G1.field.q
    k1, n1 = G1.nrows, G1.ncols
    k2, n2 = G2.nrows, G2.ncols
    n, k = n1 + n2, k1 + k2
    target = free_product(QMatroid.uniform(q, n1, k1), QMatroid.uniform(q, n2, k2))
    checks = [(s.coeff_rows(), target.rank(s)) for s in enumerate_subspaces(q, n) if s.dim]
    g1cols = [tuple(r[j] for r in G1.rows) + (field.zero,) * k2 for j in range(n1)]
    g2cols = [tuple(r[j] for r in G2.rows) for j in range(n2)]
    # one entry is normalized to zero when G1 has a single row
    prefix = (0,) if k1 == 1 else ()
    hits = []
    for rest in itertools.product(range(field.order), repeat=k1 * n2 - len(prefix)):
        entries = prefix + rest
        cols = g1cols + [tuple(entries[i * n2 + j] for i in range(k1)) + g2cols[j]
                         for j in range(n2)]
        if all(_rank_matches(field, cols, rows, w, k) for rows, w in checks):
            hits.append(Matrix(field, [entries[i * n2:(i + 1) * n2] for i in range(k1)]))
    return hits


def linear_set_profile_by_stream(system):
    """The linear-set profile, one image per nonzero coefficient vector."""
    field, q = system.field, system.q
    counts = {}
    for coeffs in itertools.product(range(q), repeat=system.n):
        if not any(coeffs):
            continue
        y0, y1 = system.image(coeffs)
        pt = (1, field.mul(field.inv(y0), y1)) if y0 else (0, 1)
        counts[pt] = counts.get(pt, 0) + 1
    points = []
    for pt in sorted(counts):
        size, w = counts[pt] + 1, 0
        while size % q == 0:
            size //= q
            w += 1
        points.append((pt, w))
    return LinearSetProfile(field=field, rank=system.n, points=tuple(points))
