"""Products of q-matroids on a split ground space F_q^{n1} + F_q^{n2}.

The free product is built on its cyclic flats: the flats of the left
factor sit below everything, the flats of the right factor are lifted
on top of the full left block, and the left block itself joins the
family exactly when the left factor has no coloops and the right factor
has no loops.  Ranks stack: a lifted flat carries r1(E1) plus its own
value.

Two routes to the same construction are kept side by side: the
certificate stacking (the default) and the closed rank formula on
slices.  The literal independence predicate is a test oracle.  New
builds are cross-validated against the rank formula whenever the
ambient lattice is small enough to sweep.

The direct sum is also certificate-first (pairwise sums of cyclic
flats, ranks adding), with a definitional minimization kept as a
brute-force oracle.

Weak-order comparisons here are pointwise rank comparisons under the
identity map; no basis change is searched.  They are read off the cyclic
flats of both sides: r1 exceeds r2 somewhere exactly when it does at a
cyclic flat of m2.  If r1(Z) <= f2(Z) at every Z, take the Z of m2's min
formula for A: r1(A) <= r1(A + Z) <= r1(Z) + dim(A + Z) - dim Z <= r2(A).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantError
from .qmatroid import QMatroid
from .subspace import (
    SMALL_LATTICE_LIMIT,
    DirectSumContext,
    Subspace,
    enumerate_subspaces,
    lattice_size,
    subspaces_of,
    sum_subspaces,
)


def _split_context(m1: QMatroid, m2: QMatroid) -> DirectSumContext:
    if m1.q != m2.q:
        raise InputError(f"factors live over different fields: q={m1.q} vs q={m2.q}")
    return DirectSumContext(m1.q, m1.n, m2.n)


# ---------------------------------------------------------------------------
# The free product.

def free_product(m1: QMatroid, m2: QMatroid, validate: bool | None = None) -> QMatroid:
    """The free product of m1 and m2 on F_q^{n1+n2}, certificate-backed.

    validate=None sweeps the result against the closed rank formula on
    ambients of at most SMALL_LATTICE_LIMIT subspaces and skips the sweep
    on larger ones; True forces it, False skips it.
    """
    ctx = _split_context(m1, m2)
    q = m1.q
    e1 = ctx.embed1(Subspace.full(q, m1.n))
    r1e = m1.rank(m1.E)
    pairs = []
    for z, f in m1.certificates():
        if z.dim < m1.n:
            pairs.append((ctx.embed1(z), f))
    if not m1.has_coloops() and not m2.has_loops():
        pairs.append((e1, r1e))
    for z, f in m2.certificates():
        if z.dim > 0:
            pairs.append((sum_subspaces(e1, ctx.embed2(z)), r1e + f))
    out = QMatroid.from_cyclic_flats(q, ctx.n, pairs, validate=False)
    if validate is None:
        validate = lattice_size(q, ctx.n) <= SMALL_LATTICE_LIMIT
    if validate:
        for x in enumerate_subspaces(q, ctx.n):
            want = free_product_rank(m1, m2, x)
            got = out.rank(x)
            if got != want:
                raise InvariantError(
                    f"free-product certificates disagree with the rank formula "
                    f"at {x.coeff_rows()}: {got} != {want}"
                )
    return out


def free_product_rank(m1: QMatroid, m2: QMatroid, x: Subspace) -> int:
    """Closed rank formula on the slice of x through the block split."""
    ctx = _split_context(m1, m2)
    left, right = ctx.slice(x)
    rl = m1.rank(left)
    rr = m2.rank(right)
    lack = m1.rank(m1.E) - rl
    nullity = right.dim - rr
    return rl + rr + min(lack, nullity)


def free_product_by_formula(m1: QMatroid, m2: QMatroid) -> QMatroid:
    """Table-backed free product straight from the rank formula."""
    ctx = _split_context(m1, m2)
    return QMatroid.from_rank_table(
        m1.q, ctx.n, lambda x: free_product_rank(m1, m2, x)
    )


def free_product_chain(ms) -> QMatroid:
    """Left fold: ((m1 * m2) * m3) * ..."""
    ms = list(ms)
    if not ms:
        raise InputError("free product of an empty list")
    out = ms[0]
    for m in ms[1:]:
        out = free_product(out, m)
    return out


# ---------------------------------------------------------------------------
# The direct sum.

def direct_sum(m1: QMatroid, m2: QMatroid) -> QMatroid:
    """The direct sum, certificate-backed: cyclic flats are exactly the
    block sums Z1 + Z2 with ranks adding."""
    ctx = _split_context(m1, m2)
    pairs = [
        (sum_subspaces(ctx.embed1(z1), ctx.embed2(z2)), f1 + f2)
        for z1, f1 in m1.certificates()
        for z2, f2 in m2.certificates()
    ]
    return QMatroid.from_cyclic_flats(m1.q, ctx.n, pairs, validate=False)


def direct_sum_by_definition(m1: QMatroid, m2: QMatroid) -> QMatroid:
    """Brute-force oracle for the direct sum:

        r(V) = dim V + min over X <= V of (r1(p1(X)) + r2(p2(X)) - dim X).
    """
    ctx = _split_context(m1, m2)

    def rank_of(v: Subspace) -> int:
        best = min(
            m1.rank(ctx.project1(x)) + m2.rank(ctx.project2(x)) - x.dim
            for x in subspaces_of(v)
        )
        return v.dim + best

    return QMatroid.from_rank_table(m1.q, ctx.n, rank_of)


# ---------------------------------------------------------------------------
# Weak-order comparison under the identity map.

@dataclass
class WeakOrderVerdict:
    """Pointwise rank comparison of two q-matroids on one ground space.

    relation is one of "equal", "M2<=M1" (every rank of m1 dominates),
    "M1<=M2", or "incomparable".  Witnesses carry a strict cyclic flat in
    each direction, keyed "r1>r2" (a flat of m2) and "r1<r2" (a flat of
    m1): the first in certificate order, which need not be the first
    strict subspace in enumeration order.
    """

    relation: str
    witnesses: dict

    def __bool__(self):
        return self.relation != "incomparable"


def weak_compare_identity(m1: QMatroid, m2: QMatroid) -> WeakOrderVerdict:
    if (m1.q, m1.n) != (m2.q, m2.n):
        raise InputError("weak comparison needs a common ground space")
    witnesses: dict = {}
    for key, sign, flats in (("r1>r2", 1, m2.certificates()), ("r1<r2", -1, m1.certificates())):
        for z, _ in flats:
            r1, r2 = m1.rank(z), m2.rank(z)
            if sign * (r1 - r2) > 0:
                witnesses[key] = {"space": z.to_dict(), "r1": r1, "r2": r2}
                break
    relation = {(): "equal", ("r1>r2",): "M2<=M1", ("r1<r2",): "M1<=M2",
                ("r1>r2", "r1<r2"): "incomparable"}[tuple(witnesses)]
    return WeakOrderVerdict(relation, witnesses)
