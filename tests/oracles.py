"""Slow reference routes for the primary flag, used only by the tests.

`closure_pinchpoints` is the definition: close the cyclic flats, 0 and
E under pairwise sums and intersections until nothing changes, then keep
the members comparable to every member.  `separator_pinchpoints` walks
every free separator of the lattice instead and keeps those that equal
the sum of the generators below them or the intersection of those above.
"""

import functools

from qmatroids.factorization import free_separators
from qmatroids.subspace import Subspace, intersect_subspaces, lattice_size, sum_subspaces


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
