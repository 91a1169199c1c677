"""Splitting q-matroids into free products.

A subspace is a free separator when every cyclic flat is comparable to
it.  The primary flag is the chain of free separators that lie in the
closure of the cyclic flats, 0 and E under sums and intersections; it is
read off in one pass over the cyclic flats sorted by dimension, without
building the closure (see pinchpoints).  Interval minors between
consecutive flag entries are the primary factors, each uniform or
irreducible, and their free product rebuilds the original q-matroid
after the change of basis that straightens the flag into coordinate
blocks.

The Vámos q-matroid lives here too, as the stock example of an
irreducible q-matroid.  Its cyclic flats can be re-derived without
trusting the certificate construction, by the rank-axiom walk that every
rank table uses, run on the defining rank function over all of F_2^8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InvariantError
from .constructions import free_product_chain, weak_compare_identity
from .qmatroid import QMatroid, _rank_walk, transport
from .subspace import (
    Subspace,
    intersect_subspaces,
    sum_subspaces,
    unpack_vector,
)


def is_free_separator(m: QMatroid, a: Subspace) -> bool:
    """True when every cyclic flat of m is comparable to a."""
    if (a.q, a.n) != (m.q, m.n):
        raise InputError("separator candidate lives in the wrong ambient")
    return all(a.contains(z) or z.contains(a) for z, _ in m.certificates())


def pinchpoints(m: QMatroid) -> list[Subspace]:
    """The primary flag: the free separators that lie in the closure of
    the cyclic flats, 0 and E under sums and intersections, by dimension.

    A free separator x is in that closure exactly when it equals the sum
    of the generators below it or the intersection of those above it.
    With the generators sorted by dimension these are a prefix sum s_i
    and a suffix intersection t_i at a boundary i where t_i contains s_i,
    and every such s_i and t_i is a free separator.
    """
    zero, full = Subspace.zero(m.q, m.n), Subspace.full(m.q, m.n)
    gens = sorted({z for z, _ in m.certificates()} | {zero, full}, key=Subspace.sort_key)
    # s_i, the sum of gens[:i], and t_i, the intersection of gens[i:], for
    # the boundaries i = 1 .. len(gens) - 1
    sums = itertools.accumulate(gens[:-1], sum_subspaces)
    meets = list(itertools.accumulate(reversed(gens[1:]), intersect_subspaces))[::-1]
    flag = {zero, full}
    for s, t in zip(sums, meets):
        if t.contains(s):
            flag |= {s, t}
    out = sorted(flag, key=Subspace.sort_key)
    for a, b in zip(out, out[1:]):
        if not b.contains(a):
            raise InvariantError("pinchpoints failed to form a chain")
    return out


# ---------------------------------------------------------------------------
# Irreducibility and the primary factorization.

def irreducibility_verdict(m: QMatroid):
    """(is_irreducible, witness separator when reducible).

    Uniform q-matroids on n >= 2 are reducible with any atom as a
    witness; otherwise reducibility is the existence of a non-trivial
    pinchpoint.
    """
    if m.n == 0:
        return True, None
    if m.is_uniform():
        if m.n <= 1:
            return True, None
        witness = Subspace(m.q, m.n, [next(iter(Subspace.full(m.q, m.n).rows))])
        return False, witness
    for x in pinchpoints(m):
        if 0 < x.dim < m.n:
            return False, x
    return True, None


def is_irreducible(m: QMatroid) -> bool:
    return irreducibility_verdict(m)[0]


@dataclass
class FactorizationReport:
    """Primary flag, interval-minor factors, and the basis that aligns
    the flag with coordinate blocks (rows listed bottom factor first)."""

    flag: list
    factors: list
    factor_kinds: list
    adapted_basis: list
    verified: bool

    def to_dict(self) -> dict:
        q, n = self.flag[-1].q, self.flag[-1].n
        return {
            "flag": [t.to_dict() for t in self.flag],
            "factors": [f.to_dict() for f in self.factors],
            "factor_kinds": list(self.factor_kinds),
            "adapted_basis": [unpack_vector(q, n, r) for r in self.adapted_basis],
            "verified": self.verified,
        }


def primary_factorization(m: QMatroid) -> FactorizationReport:
    """Split m along its primary flag (see pinchpoints).

    The reconstruction (free product of the factors equals m after the
    adapted change of basis) is checked at every size on cyclic flats by
    weak_compare_identity, so a returned report is always verified.
    """
    if m.n == 0:
        raise InputError("cannot factorize a q-matroid on a zero space")
    flag = pinchpoints(m)
    factors = []
    kinds = []
    adapted: list = []
    for lo, hi in zip(flag, flag[1:]):
        factor, qm = m.minor_with_map(lo, hi)
        factors.append(factor)
        kinds.append("uniform" if factor.is_uniform() else "irreducible")
        adapted.extend(qm.kept)
    rebuilt = free_product_chain(factors)
    # m's own cyclic flats, transported; a table backing scanned them for
    # the flag already
    moved = transport(m, adapted)
    if weak_compare_identity(rebuilt, moved).relation != "equal":
        raise InvariantError("primary factors failed to reproduce the q-matroid")
    return FactorizationReport(
        flag=flag,
        factors=factors,
        factor_kinds=kinds,
        adapted_basis=adapted,
        verified=True,
    )


# ---------------------------------------------------------------------------
# The Vámos q-matroid.

def vamos_designated_spaces(q: int = 2) -> list[Subspace]:
    """The five designated 4-dim spaces, in pairs of coordinate planes."""
    blocks = [(0, 1), (2, 3), (4, 5), (6, 7)]
    picks = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    units = Subspace.full(q, 8).rows
    out = []
    for i, j in picks:
        out.append(Subspace(q, 8, [units[c] for c in blocks[i] + blocks[j]]))
    return out


def vamos_rank(q: int = 2):
    """The defining rank function: dimension up to 3, then 4, except
    that the five designated spaces stay at rank 3."""
    designated = set(vamos_designated_spaces(q))

    def rank_of(a: Subspace) -> int:
        if a.dim <= 3:
            return a.dim
        if a in designated:
            return 3
        return 4

    return rank_of


def vamos_qmatroid(q: int = 2) -> QMatroid:
    """Certificate-backed: cyclic flats are zero, the five designated
    spaces at rank 3, and the full space at rank 4."""
    pairs = [(Subspace.zero(q, 8), 0), (Subspace.full(q, 8), 4)]
    pairs += [(c, 3) for c in vamos_designated_spaces(q)]
    return QMatroid.from_cyclic_flats(q, 8, pairs, validate=True)


def vamos_cyclic_flats_scan(q: int = 2, progress: bool = False):
    """Find every cyclic flat of the Vámos q-matroid by walking the whole
    lattice of F_q^8 with the defining rank function.

    Returns the sorted (space, rank) pairs.  Independent of the
    certificate constructor: the rank-axiom walk of every rank table
    (see qmatroid._rank_walk) runs on vamos_rank, streaming the strata
    and checking each stratum's size against the Gaussian binomial; the
    flats found must equal the certificates, missing none.  progress=True
    prints a line to stderr per finished stratum.
    """
    failures, found = _rank_walk(q, 8, vamos_rank(q), progress=progress)
    if failures:
        raise InvariantError(f"the Vámos rank function fails {failures[0]['axiom']}")
    if found != vamos_qmatroid(q).certificates():
        raise InvariantError("the Vámos scan and its certificates disagree")
    return found
