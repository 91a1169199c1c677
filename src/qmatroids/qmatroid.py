"""Rank functions on the subspace lattice of F_q^n.

A q-matroid is backed either by a full rank table (one integer per
subspace of the ground space) or by a certificate: the cyclic flats
together with their ranks, from which every other rank value follows by
the minimization

    r(A) = min{ f(Z) + dim(A + Z) - dim(Z) : Z certified }
         = dim(A) + min{ f(Z) - dim(A meet Z) : Z certified }.

The second form is read off element masks (QMatroid._terms).  Its least
terms, Min(A), give the closure cl(A) = A + sum Min(A) and the largest
cyclic subspace A meet (meet Min(A)) (QMatroid._minimizing_flats).

A rank table answers rank queries only; one scan, on first use, finds its
cyclic flats and keeps them as its certificate.  Every construction and
the uniformity test read the cyclic flats, whatever the backing.

Axiom checkers for the three cryptomorphisms in use (rank axioms,
independence axioms, cyclic-flat axioms) return verdicts carrying the
violated axiom tag and a witness instead of raising.  The rank-axiom
check and the cyclic-flat scan of a rank table are one lattice walk,
and the independence check runs that walk on the rank function the
family generates.

CyclicFlatLattice works out the inclusion order of a set of flats once.
Its ends, joins, meets and covers, the cyclic-flat axiom check, and the
loops and coloops of a q-matroid (the ends of its cyclic flats) are all
read off that order, with no rank query; the rank-oracle routes (the
closure of a sum, the cyclic core of an intersection) are test oracles.

A QMatroid value is immutable except for the element masks of its
cyclic flats, built on the first rank query, and the cyclic flats a
table backing finds by scan.  Both writes are idempotent (a slot always
gets the same value), so concurrent readers need no coordination.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

from .errors import BudgetError, InputError
from .subspace import (
    DOCUMENT_AMBIENT_LIMIT,
    MASK_AMBIENT_LIMIT,
    QuotientMap,
    Subspace,
    atom_vectors,
    atoms,
    codim1_subspaces,
    enumerate_subspaces,
    hyperplane_walk,
    intersect_subspaces,
    invert_matrix,
    lattice_size,
    map_by_matrix,
    orthogonal_complement,
    pack_vector,
    phi,
    read_header,
    require_materialize_budget,
    subspaces_of,
    sum_subspaces,
)

# Exhaustive GL(n, q) isomorphism search is attempted only below this
# group order; larger groups yield an "unknown" verdict.
GL_SEARCH_LIMIT = 2 * 10**7

# A certificate rank query whose element mask is not built yet takes one
# sum_subspaces per flat once q^dim A exceeds this many vectors per flat.
# Per query on the 9-flat acceptance-11 product over F_2^13 the routes
# cross between dim 8 (256 vectors: masks 137 us, sums 192 us) and dim 9
# (512: masks 264 us, sums 197 us).  Over F_3 a mask costs about 2.5 us
# a vector, so one query crosses nearer 12 vectors a flat; the bound stays
# at 40 there because the subspaces of a small lattice are shared (see
# subspace.SMALL_LATTICE_LIMIT) and keep their masks for every later sweep.
SUMS_VECTORS_PER_FLAT = 40


@dataclass
class AxiomVerdict:
    """Outcome of an axiom suite: ok, or a list of tagged witnesses."""

    ok: bool
    failures: list = field(default_factory=list)

    def failed_axioms(self) -> set[str]:
        return {f["axiom"] for f in self.failures}

    def message(self) -> str:
        if self.ok:
            return "all axioms hold"
        f = self.failures[0]
        return f"{f['axiom']} violated at {f['witness']}"


def _fail(failures: list, axiom: str, witness) -> None:
    failures.append({"axiom": axiom, "witness": witness})


class QMatroid:
    """A q-matroid on F_q^n, backed by a rank table or by cyclic flats."""

    __slots__ = ("q", "n", "E", "_table", "_certs", "_flat_masks")

    def __init__(self, q: int, n: int, *, table=None, certs=None):
        if (table is None) == (certs is None):
            raise InputError("exactly one backing (table or certs) is required")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "E", Subspace.full(q, n))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_certs", certs)
        object.__setattr__(self, "_flat_masks", None)

    def __setattr__(self, name, value):
        raise AttributeError("QMatroid is immutable")

    def __repr__(self):
        backing = "table" if self._table is not None else f"{len(self._certs)} cyclic flats"
        return f"QMatroid(q={self.q}, n={self.n}, rank={self.rank(self.E)}, {backing})"

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_rank_table(cls, q: int, n: int, table, validate: bool = False) -> "QMatroid":
        """table is a mapping or a rank function.  validate=True runs the
        rank-axiom walk now, raising InputError on a non-q-matroid, and
        keeps the cyclic flats it finds for certificates()."""
        m = cls(q, n, table=_rank_table(q, n, table))
        if validate:
            m.certificates()
        return m

    @classmethod
    def from_cyclic_flats(cls, q: int, n: int, flats, validate: bool = True) -> "QMatroid":
        pairs = []
        seen = set()
        for z, f in flats:
            if (z.q, z.n) != (q, n):
                raise InputError(f"cyclic flat in F_{z.q}^{z.n}, expected F_{q}^{n}")
            if z in seen:
                raise InputError(f"duplicate cyclic flat {z.coeff_rows()}")
            seen.add(z)
            pairs.append((z, int(f)))
        pairs.sort(key=lambda p: p[0].sort_key())
        if validate:
            verdict = check_cyclic_flat_axioms(q, n, pairs)
            if not verdict.ok:
                raise InputError(f"invalid cyclic flats: {verdict.message()}")
        return cls(q, n, certs=tuple(pairs))

    @classmethod
    def uniform(cls, q: int, n: int, k: int) -> "QMatroid":
        """U_{k,n}(q): rank(A) = min(dim A, k)."""
        if not 0 <= k <= n:
            raise InputError(f"uniform rank {k} out of range for ambient {n}")
        zero = Subspace.zero(q, n)
        full = Subspace.full(q, n)
        if k == n:
            certs = ((zero, 0),)
        elif k == 0:
            certs = ((full, 0),)
        else:
            certs = ((zero, 0), (full, k))
        return cls(q, n, certs=certs)

    # -- the rank oracle --------------------------------------------------
    def rank(self, a: Subspace) -> int:
        """r(a), from the table, or dim(a) + min t_Z(a) over the cyclic flats."""
        if self._table is not None and (a.q, a.n) == (self.q, self.n):
            return self._table[a]
        return a.dim + min(self._terms(a))  # _terms rejects another ambient

    def _terms(self, a: Subspace) -> list[int]:
        """t_Z(a) = f(Z) - dim(a meet Z) per cyclic flat Z, in certificate
        order.  Up to MASK_AMBIENT_LIMIT, dim(a meet Z) is read off
        popcount(mask(a) & mask(Z)) = q^dim(a meet Z): the flats' masks and a
        {q^i: i} table are built on the first such query and a's mask is
        cached on a.  Above the bound, or when a has no mask yet and q^dim(a)
        passes SUMS_VECTORS_PER_FLAT vectors per flat, a mask costs more than
        the eliminations, and dim(a meet Z) = dim a + dim Z - dim(a + Z).
        """
        if (a.q, a.n) != (self.q, self.n):
            raise InputError(f"subspace of F_{a.q}^{a.n} given to a q-matroid on F_{self.q}^{self.n}")
        q, n, certs = self.q, self.n, self.certificates()
        if a._mask is None and (
            q**n > MASK_AMBIENT_LIMIT or q**a.dim > SUMS_VECTORS_PER_FLAT * len(certs)
        ):
            return [f + sum_subspaces(a, z).dim - z.dim - a.dim for z, f in certs]
        masks = self._flat_masks
        if masks is None:
            log = {q**i: i for i in range(n + 1)}
            masks = log, tuple((f, z.element_mask()) for z, f in certs)
            object.__setattr__(self, "_flat_masks", masks)
        log, flats = masks
        ma = a.element_mask()
        return [f - log[(ma & mz).bit_count()] for f, mz in flats]

    def _minimizing_flats(self, a: Subspace) -> list[Subspace]:
        """Min(a), the cyclic flats Z of least t_Z(a).  If r(a+x) = r(a), a Z in
        Min(a+x) has r(a) = f(Z)+dim(a+x+Z)-dim Z >= f(Z)+dim(a+Z)-dim Z >= r(a),
        so x lies in a+Z and Z in Min(a): cl(a) = a + sum Min(a).  The dual's
        terms at a-perp are t_Z(a) + dim a - r(E), so Min*(a-perp) = Min(a)-perp
        and the cyclic part of a is a meet (meet Min(a))."""
        terms = self._terms(a)
        least = min(terms)
        return [z for (z, _), t in zip(self.certificates(), terms) if t == least]

    def is_independent(self, a: Subspace) -> bool:
        """Certificate route when available: dim(I meet Z) <= f(Z) for all Z."""
        # Intersections, not the element masks of rank(): tests and the
        # benchmark's rank check read this as a route independent of rank.
        if self._table is None:
            return all(
                intersect_subspaces(a, z).dim <= f for z, f in self._certs
            )
        return self.rank(a) == a.dim

    def independent_spaces(self) -> set[Subspace]:
        require_materialize_budget(self.q, self.n)
        return {s for s in enumerate_subspaces(self.q, self.n) if self.is_independent(s)}

    # -- flatness and cyclicity ------------------------------------------
    def is_flat(self, a: Subspace) -> bool:
        return all(a.contains(z) for z in self._minimizing_flats(a))

    def _is_flat_in(self, a: Subspace, sup: Subspace) -> bool:
        """Whether a is a flat of the restriction to sup: cl(a) meet sup = a."""
        return intersect_subspaces(functools.reduce(sum_subspaces, self._minimizing_flats(a), a), sup) == a

    def is_cyclic(self, a: Subspace) -> bool:
        return all(z.contains(a) for z in self._minimizing_flats(a))

    # -- loops and coloops -------------------------------------------------
    def loops(self) -> list[Subspace]:
        """The atoms of rank 0: those of cl(0), the bottom cyclic flat."""
        return list(atoms(self.certificates()[0][0]))

    def has_loops(self) -> bool:
        """Whether cl(0), the bottom cyclic flat, is not 0."""
        return self.certificates()[0][0].dim > 0

    def coloops(self) -> list[Subspace]:
        """The hyperplanes of rank below r(E): those that contain the top
        cyclic flat, the perps of the loops of the dual."""
        top = self.certificates()[-1][0]
        return [orthogonal_complement(x) for x in atoms(orthogonal_complement(top))]

    def has_coloops(self) -> bool:
        """Whether E, always a flat, is not cyclic: the top cyclic flat is
        not E."""
        return self.certificates()[-1][0].dim < self.n

    # -- cyclic flats -------------------------------------------------------
    def cyclic_flats(self) -> "CyclicFlatLattice":
        return CyclicFlatLattice(self.q, self.n, self.certificates())

    def certificates(self):
        """Cyclic flats with ranks, sorted by Subspace.sort_key: the bottom
        flat first and the top flat last, where the loop and coloop tests
        read them.  A table backing scans for them on the first call and
        keeps them in _certs; a table that is not a q-matroid raises
        InputError here."""
        if self._certs is None:
            object.__setattr__(self, "_certs", cyclic_flats_by_scan(self))
        return self._certs

    # -- uniformity ----------------------------------------------------------
    def uniform_parameters(self):
        """k when this is U_{k,n}, else None: the cyclic flats determine
        the q-matroid, so it is uniform when they are those of U_{r(E),n}."""
        k = self.rank(self.E)
        return k if self.certificates() == QMatroid.uniform(self.q, self.n, k).certificates() else None

    def is_uniform(self) -> bool:
        return self.uniform_parameters() is not None

    # -- duality ---------------------------------------------------------------
    def dual(self) -> "QMatroid":
        """Dual under the standard dot product, r*(A) = dim(A) - r(E) +
        r(A-perp): its cyclic flats are the Z-perp of the cyclic flats Z,
        at rank dim Z-perp - r(E) + f(Z), whatever the backing."""
        return _dual_along(self, orthogonal_complement)

    # -- minors -------------------------------------------------------------
    def minor_with_map(self, sub: Subspace, sup: Subspace):
        """The minor on the interval [sub, sup], with its coordinate map.

        Ranks are r(X) - r(sub) for sub <= X <= sup, carried onto
        F_q^{dim sup - dim sub} by the deterministic quotient coordinates.
        Its cyclic flats come from the cyclic flats Z of self: those of the
        restriction to sup are the cyclic W = Z meet sup, and those of its
        contraction by sub the V = W + sub that are flats of the restriction,
        at rank r(V) - r(sub).  W = Z and V = W need no test; the tests read
        Min (see _minimizing_flats) and stream no atom or hyperplane.  (A
        cyclic space closes to a cyclic flat; duals swap flats and perps.)
        """
        qm = QuotientMap(sub, sup)
        if sub.dim == 0 and sup.dim == self.n:
            return self, qm
        base = self.rank(sub)
        flats = {}
        for z, _ in self.certificates():
            w = intersect_subspaces(z, sup)
            v = sum_subspaces(w, sub)
            if v not in flats and (w == z or self.is_cyclic(w)) and (v == w or self._is_flat_in(v, sup)):
                flats[v] = self.rank(v) - base
        pairs = [(qm.map_subspace(v), f) for v, f in flats.items()]
        return QMatroid.from_cyclic_flats(self.q, qm.dim, pairs, validate=False), qm

    def minor(self, sub: Subspace, sup: Subspace) -> "QMatroid":
        return self.minor_with_map(sub, sup)[0]

    def restriction(self, a: Subspace) -> "QMatroid":
        return self.minor(Subspace.zero(self.q, self.n), a)

    def contraction(self, a: Subspace) -> "QMatroid":
        return self.minor(a, self.E)

    # -- interchange ------------------------------------------------------------
    def to_dict(self) -> dict:
        certs = self.certificates()
        return {
            "q": self.q,
            "n": self.n,
            "cyclic_flats": [
                {"basis": z.coeff_rows(), "rank": f} for z, f in certs
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict, validate: bool = True) -> "QMatroid":
        q, n, kind, pairs = parse_document(doc)
        if kind == "cyclic_flats":
            return cls.from_cyclic_flats(q, n, pairs, validate=validate)
        return cls.from_rank_table(q, n, dict(pairs), validate=validate)


def parse_document(doc: dict):
    """(q, n, kind, pairs) of a q-matroid document.

    kind is "cyclic_flats" or "ranks" (the first present wins) and pairs
    lists one (subspace, value) per entry.  A document of the wrong shape
    (a missing key, a value that is not an integer, a repeated subspace)
    raises InputError, and one on more than DOCUMENT_AMBIENT_LIMIT
    vectors BudgetError; whether the values obey any axioms is left to
    the caller.
    """
    q, n = read_header(doc, "q-matroid")
    Subspace.zero(q, n)  # rejects a bad field size or a negative dimension
    # n past the limit's bit length already exceeds it, and q**n would be huge
    if n >= DOCUMENT_AMBIENT_LIMIT.bit_length() or q**n > DOCUMENT_AMBIENT_LIMIT:
        raise BudgetError(f"a q-matroid on F_{q}^{n} exceeds the budget of "
                          f"{DOCUMENT_AMBIENT_LIMIT} ambient vectors")
    for kind, key in (("cyclic_flats", "rank"), ("ranks", "r")):
        if kind in doc:
            break
    else:
        raise InputError("q-matroid document needs 'cyclic_flats' or 'ranks'")
    entries = doc[kind]
    if not isinstance(entries, list):
        raise InputError(f"'{kind}' must be a list of entries")
    pairs = []
    seen = set()
    for entry in entries:
        try:
            space = Subspace.from_dict({"q": q, "n": n, "basis": entry["basis"]})
            value = entry[key]
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed '{kind}' entry {entry!r}: {e!r}") from None
        if type(value) is not int:  # int() would pass True, truncate 1.7 or parse "1"
            raise InputError(f"'{kind}' entry {entry!r}: {key!r} is not an integer")
        if space in seen:
            raise InputError(f"'{kind}' lists the subspace {space.coeff_rows()} twice")
        seen.add(space)
        pairs.append((space, value))
    return q, n, kind, pairs


# ---------------------------------------------------------------------------
# Cyclic flats as a lattice.

def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CyclicFlatLattice:
    """A set of subspaces of F_q^n with ranks, under inclusion: the cyclic
    flats of a q-matroid, or a set checked for the cyclic-flat axioms.

    The order is worked out once, as per-index bitmasks of the flats
    below and above each one, and every query reads those masks; no rank
    oracle is involved.  The pairs are sorted by Subspace.sort_key,
    dimension first, so a least element of a set of flats can only be
    its lowest index and a greatest one its highest.
    """

    def __init__(self, q: int, n: int, pairs):
        self.q = q
        self.n = n
        self.pairs = tuple(sorted(pairs, key=lambda p: p[0].sort_key()))
        spaces = self.spaces()
        self._index = {z: i for i, z in enumerate(spaces)}
        if len(self._index) != len(spaces):
            raise InputError("duplicate spaces in cyclic-flat collection")
        self._all = (1 << len(spaces)) - 1
        self._below = [1 << i for i in range(len(spaces))]
        self._above = list(self._below)
        for i, a in enumerate(spaces):
            for j in range(i + 1, len(spaces)):
                if spaces[j].dim > a.dim and spaces[j].contains(a):
                    self._above[i] |= 1 << j
                    self._below[j] |= 1 << i

    def __len__(self):
        return len(self.pairs)

    def spaces(self) -> list[Subspace]:
        return [z for z, _ in self.pairs]

    def _at(self, z: Subspace) -> int:
        try:
            return self._index[z]
        except KeyError:
            raise InputError("not a cyclic flat of this q-matroid") from None

    def rank_of(self, z: Subspace) -> int:
        return self.pairs[self._at(z)][1]

    def _least(self, mask: int):
        """The index in mask below every other one there, or None."""
        i = (mask & -mask).bit_length() - 1
        return i if mask and self._above[i] & mask == mask else None

    def _greatest(self, mask: int):
        """The index in mask above every other one there, or None."""
        i = mask.bit_length() - 1
        return i if mask and self._below[i] & mask == mask else None

    def _space(self, i, missing: str) -> Subspace:
        if i is None:
            raise InputError(f"cyclic-flat collection has no {missing}")
        return self.pairs[i][0]

    def bottom(self) -> Subspace:
        return self._space(self._least(self._all), "minimum element")

    def top(self) -> Subspace:
        return self._space(self._greatest(self._all), "maximum element")

    def join(self, a: Subspace, b: Subspace) -> Subspace:
        return self._space(self._least(self._above[self._at(a)] & self._above[self._at(b)]), "join")

    def meet(self, a: Subspace, b: Subspace) -> Subspace:
        return self._space(self._greatest(self._below[self._at(a)] & self._below[self._at(b)]), "meet")

    def hasse_edges(self) -> list[tuple[Subspace, Subspace]]:
        """Cover pairs (lower, upper) of the inclusion order on the flats:
        j covers i when the flats between them are only i and j."""
        spaces = self.spaces()
        edges = []
        for i in range(len(spaces)):
            for j in _bits(self._above[i] & ~(1 << i)):
                if self._above[i] & self._below[j] == (1 << i) | (1 << j):
                    edges.append((spaces[i], spaces[j]))
        return edges

    def shape_signature(self):
        """Isomorphism-invariant snapshot: labeled nodes plus labeled edges."""
        label = {z: (z.dim, f) for z, f in self.pairs}
        nodes = sorted(label.values())
        edges = sorted((label[a], label[b]) for a, b in self.hasse_edges())
        return tuple(nodes), tuple(edges)


def cyclic_flats_by_scan(m: QMatroid):
    """All cyclic flats of m, by the walk of check_rank_axioms; a rank
    function that is not a q-matroid raises InputError."""
    table = m._table if m._table is not None else full_rank_table(m)
    failures, flats = _walk_table(m.q, m.n, table)
    if failures:
        raise InputError(f"not a q-matroid: {AxiomVerdict(False, failures).message()}")
    return flats


def full_rank_table(m: QMatroid) -> dict[Subspace, int]:
    return _rank_table(m.q, m.n, m.rank)


def rank_tables_equal(m1: QMatroid, m2: QMatroid) -> bool:
    if (m1.q, m1.n) != (m2.q, m2.n):
        return False
    return all(
        m1.rank(s) == m2.rank(s) for s in enumerate_subspaces(m1.q, m1.n)
    )


def dual_by_definition(m: QMatroid) -> QMatroid:
    """Independent dual oracle: materializes dim(A) - r(E) + r(A-perp)."""
    re = m.rank(m.E)
    return QMatroid.from_rank_table(
        m.q, m.n, lambda a: a.dim - re + m.rank(orthogonal_complement(a))
    )


def phi_dual(m: QMatroid) -> QMatroid:
    """Dual taken along the reversal anti-isomorphism instead of perp.

    Same rank law with phi in place of perp; equals the perp-dual
    transported by coordinate reversal.
    """
    return _dual_along(m, phi)


def _dual_along(m: QMatroid, anti) -> QMatroid:
    """The dual along an anti-isomorphism of the lattice (perp or phi):
    the cyclic flats anti(Z), at rank dim anti(Z) - r(E) + f(Z)."""
    re = m.rank(m.E)
    pairs = [(anti(z), (m.n - z.dim) - re + f) for z, f in m.certificates()]
    return QMatroid.from_cyclic_flats(m.q, m.n, pairs, validate=False)


def transport(m: QMatroid, images) -> QMatroid:
    """The q-matroid A -> r(g(A)) for the invertible map g: e_i -> images[i].

    Images may be packed vectors or coefficient rows (the format
    is_isomorphic reports), so verdict images can be fed back in.
    """
    images = [v if isinstance(v, int) else pack_vector(m.q, m.n, v)
              for v in images]
    inv = invert_matrix(m.q, m.n, images)
    pairs = [(map_by_matrix(z, inv), f) for z, f in m.certificates()]
    return QMatroid.from_cyclic_flats(m.q, m.n, pairs, validate=False)


# ---------------------------------------------------------------------------
# Rank axioms.

def _rank_table(q: int, n: int, rank_of) -> dict[Subspace, int]:
    """A rank table from a rank function or a mapping; a mapping must
    cover the whole lattice of F_q^n."""
    if callable(rank_of):
        require_materialize_budget(q, n)
        return {s: int(rank_of(s)) for s in enumerate_subspaces(q, n)}
    table = dict(rank_of)
    expected = lattice_size(q, n)
    if len(table) != expected:
        raise InputError(f"rank table has {len(table)} entries, expected {expected}")
    return table


def check_rank_axioms(q: int, n: int, rank_of) -> AxiomVerdict:
    """(R1) boundedness, (R2) monotonicity, (R3) submodularity.

    rank_of is a rank table or a rank function.  Lists every (R1)
    failure, else the failures of the first subspace whose covers break
    (R2) or (R3) in one walk up the lattice (see _rank_walk).
    """
    failures, _ = _walk_table(q, n, _rank_table(q, n, rank_of))
    return AxiomVerdict(not failures, failures)


def _walk_table(q: int, n: int, table):
    """_rank_walk on a full rank table, once every entry meets (R1); else
    the (R1) failures in table order."""
    failures: list = []
    for s, r in table.items():
        if not 0 <= r <= s.dim:
            _fail(failures, "(R1)", {"space": s.to_dict(), "rank": r})
    if failures:
        return failures, ()
    return _rank_walk(q, n, table.__getitem__)


def _rank_walk(q: int, n: int, rank_of, progress: bool = False):
    """(failures, sorted cyclic flats) of a rank function on F_q^n that
    meets (R1); no flats when an axiom fails.  The lattice is streamed
    one stratum at a time, so no table of it is held.  One pass over the
    hyperplane ids of each S runs its cover steps, settles whether S is
    cyclic and marks which of its hyperplanes are not flat (those of its
    rank).  progress=True prints a line to stderr per finished stratum."""
    # With (R1) holding, covers give the verdict of the pairwise sweep.
    #
    # Cover steps, for each hyperplane B of S: r(B) <= r(S) is (R2), and
    # monotone steps give monotonicity.  r(S) <= r(B) + 1 is (R3) on B and
    # an atom x of S outside B, since r(x) <= 1 and r(0) = 0; that pair is
    # the witness.
    #
    # Diamonds: a function on the modular lattice of subspaces is
    # submodular once r(B) + r(C) >= r(B + C) + r(B meet C) holds for every
    # pair of distinct hyperplanes B, C of a common S.  Such a pair meets
    # in a codimension-2 subspace W of S, and each W lies in exactly q + 1
    # hyperplanes of S, any two of which meet in W and span S.  So every
    # pair at (S, W) holds exactly when the two smallest ranks among those
    # q + 1 hyperplanes sum to at least r(S) + r(W).  Once the cover steps
    # up to S hold, each B has r(B) = r(S) or r(S) - 1 and r(W) <= r(B), so
    # (S, W) fails exactly when W lies in two hyperplanes of rank r(S) - 1
    # and r(W) > r(S) - 2.  Only those rank-dropping hyperplanes are
    # visited; a cyclic S has none, and r(S) = dim S gives
    # r(W) <= dim W = r(S) - 2.  W is a hyperplane id shared by hyperplanes
    # of S, so no intersection is computed.
    #
    # Every cover-step failure outranks a diamond one: after the first
    # broken diamond the walk goes on with cover steps only, and reports
    # the diamond if they all hold.
    failures: list = []
    diamond = None
    flats = []
    b_spaces, b_ranks, b_hypers, b_cyclic, w_ranks = [], [], [], [], []
    for d, (stratum, hypers) in enumerate(hyperplane_walk(q, n)):
        ranks = [rank_of(s) for s in stratum]
        b_flat = [True] * len(b_spaces)
        cyclic = []
        for s, rs, hs in zip(stratum, ranks, hypers):
            drops = []
            for h in hs:
                rb = b_ranks[h]
                if rb == rs:
                    b_flat[h] = False
                elif rb > rs:
                    _fail(failures, "(R2)", {"sub": b_spaces[h].to_dict(), "sup": s.to_dict()})
                elif rs > rb + 1:
                    b = b_spaces[h]
                    x = next(v for v in s.rows if not b.contains_vector(v))
                    _fail(failures, "(R3)",
                          {"a": b.to_dict(), "b": Subspace(q, n, [x]).to_dict()})
                else:
                    drops.append(h)
            if failures:
                return failures, ()
            cyclic.append(not drops)
            if diamond is not None or len(drops) < 2 or rs == d:
                continue
            above: dict[int, list[int]] = {}
            for h in drops:
                for w in b_hypers[h]:
                    above.setdefault(w, []).append(h)
            broken = {w for w, bs in above.items() if len(bs) > 1 and w_ranks[w] > rs - 2}
            if broken:
                # the W that a pass over every hyperplane of S meets first
                w = next(w for h in hs for w in b_hypers[h] if w in broken)
                b, c = above[w][:2]
                diamond = {"a": b_spaces[b].to_dict(), "b": b_spaces[c].to_dict()}
        flats += [(b, rb) for b, rb, c, f in zip(b_spaces, b_ranks, b_cyclic, b_flat) if c and f]
        b_spaces, b_ranks, b_hypers, b_cyclic, w_ranks = stratum, ranks, hypers, cyclic, b_ranks
        if progress:
            print(f"walk: stratum {d} of {n} done, {len(stratum)} subspaces", file=sys.stderr)
    if diamond is not None:
        _fail(failures, "(R3)", diamond)
        return failures, ()
    flats += [(s, rs) for s, rs, c in zip(b_spaces, b_ranks, b_cyclic) if c]  # nothing covers E
    flats.sort(key=lambda p: p[0].sort_key())
    return failures, tuple(flats)


# ---------------------------------------------------------------------------
# Independence axioms.

def check_independence_axioms(q: int, n: int, indep) -> AxiomVerdict:
    """(I1) nonempty at zero, (I2) closed downward, (I3) augmentation and
    (I4''): for every A, I maximal in A and atom x, some J maximal in A+x
    lies in I+x.  The last two are read off _rank_walk on rank_from_independents."""
    require_materialize_budget(q, n)
    iset = set(indep)
    for s in iset:
        if (s.q, s.n) != (q, n):
            raise InputError("independent space in the wrong ambient")
    failures: list = []
    zero = Subspace.zero(q, n)

    if zero not in iset:
        _fail(failures, "(I1)", {"space": zero.to_dict()})
        return AxiomVerdict(False, failures)

    for s in iset:
        for b in codim1_subspaces(s):
            if b not in iset:
                _fail(failures, "(I2)", {"member": s.to_dict(), "missing": b.to_dict()})
                return AxiomVerdict(False, failures)

    # With (I2) holding, only a diamond can fail: r is monotone, the
    # hyperplanes of a member S are members of rank dim S - 1, and every
    # hyperplane of a non-member S meets a top member of S in a member of
    # dimension at least r(S) - 1.  So the witness is two hyperplanes B, C
    # of S = B + C with r(B) = r(C) = r(B meet C) = r(S) - 1 = k - 1.  Take
    # members I of dimension k - 1 in B meet C and J of dimension k in S.
    # If no atom of J extends I, (I3) fails at I, J.  Else (I4'') fails at
    # B, I and an atom x of C outside B: I is maximal in B, B + x = S has
    # rank k, and I + x lies in C, of rank k - 1, so it is not a member.
    rank = rank_from_independents(q, n, iset)
    walk, _ = _rank_walk(q, n, rank.__getitem__)
    if not walk:
        return AxiomVerdict(True, failures)
    b, c = (Subspace.from_dict(walk[0]["witness"][key]) for key in ("a", "b"))
    w, s = intersect_subspaces(b, c), sum_subspaces(b, c)
    i = next(t for t in subspaces_of(w, [rank[s] - 1]) if t in iset)
    j = next(t for t in subspaces_of(s, [rank[s]]) if t in iset)
    if not any(i.extend(v) in iset for v in atom_vectors(j) if not i.contains_vector(v)):
        _fail(failures, "(I3)", {"i": i.to_dict(), "j": j.to_dict()})
    else:
        x = next(Subspace(q, n, [v]) for v in atom_vectors(c) if not b.contains_vector(v))
        _fail(failures, "(I4'')", {"a": b.to_dict(), "i": i.to_dict(), "x": x.to_dict()})
    return AxiomVerdict(False, failures)


def rank_from_independents(q: int, n: int, indep) -> dict[Subspace, int]:
    """The rank table generated by an independence family: r(X) is the
    top dimension of a member inside X, by hyperplane dynamic
    programming.  No axioms are assumed."""
    iset = set(indep)
    table: dict[Subspace, int] = {}
    for s in enumerate_subspaces(q, n):
        if s in iset:
            table[s] = s.dim
        elif s.dim == 0:
            table[s] = 0
        else:
            table[s] = max(table[b] for b in codim1_subspaces(s))
    return table


# ---------------------------------------------------------------------------
# Cyclic flat axioms.

def check_cyclic_flat_axioms(q: int, n: int, pairs) -> AxiomVerdict:
    """(Z0) lattice under inclusion, (Z1) bottom has value zero,
    (Z2) strict sandwich on nested pairs, (Z3) strengthened submodularity.

    The inclusion order, bounds included, is the CyclicFlatLattice's."""
    pairs = [(z, int(f)) for z, f in pairs]
    failures: list = []
    if not pairs:
        _fail(failures, "(Z1)", {"detail": "empty collection has no minimum"})
        return AxiomVerdict(False, failures)
    lat = CyclicFlatLattice(q, n, pairs)
    spaces = lat.spaces()
    fval = [f for _, f in lat.pairs]
    k = len(spaces)

    bottom = lat._least(lat._all)
    if bottom is None:
        _fail(failures, "(Z0)", {"detail": "no minimum element"})
    elif fval[bottom] != 0:
        _fail(
            failures,
            "(Z1)",
            {"space": spaces[bottom].to_dict(), "rank": fval[bottom]},
        )

    # (Z2)
    for i in range(k):
        for j in _bits(lat._below[i] & ~(1 << i)):
            # spaces[j] < spaces[i]
            gap_f = fval[i] - fval[j]
            gap_d = spaces[i].dim - spaces[j].dim
            if not 0 < gap_f < gap_d:
                _fail(
                    failures,
                    "(Z2)",
                    {"g": spaces[j].to_dict(), "f": spaces[i].to_dict(),
                     "rank_gap": gap_f, "dim_gap": gap_d},
                )

    # (Z0) pairwise bounds, then (Z3) on them
    for i in range(k):
        for j in range(i + 1, k):
            vee = lat._least(lat._above[i] & lat._above[j])
            wedge = lat._greatest(lat._below[i] & lat._below[j])
            if vee is None or wedge is None:
                _fail(
                    failures,
                    "(Z0)",
                    {"a": spaces[i].to_dict(), "b": spaces[j].to_dict(),
                     "detail": "missing join" if vee is None else "missing meet"},
                )
                continue
            inter_dim = intersect_subspaces(spaces[i], spaces[j]).dim
            correction = inter_dim - spaces[wedge].dim
            if fval[i] + fval[j] < fval[vee] + fval[wedge] + correction:
                _fail(
                    failures,
                    "(Z3)",
                    {"f": spaces[i].to_dict(), "g": spaces[j].to_dict(),
                     "join": spaces[vee].to_dict(), "meet": spaces[wedge].to_dict()},
                )
    return AxiomVerdict(not failures, failures)


# ---------------------------------------------------------------------------
# Isomorphism testing.

@dataclass
class IsoVerdict:
    kind: str  # "yes" | "no" | "unknown"
    images: list | None = None  # images of e_1..e_n as coefficient rows
    reason: str | None = None

    def __bool__(self):
        return self.kind == "yes"


def _gl_order(q: int, n: int) -> int:
    total = 1
    for i in range(n):
        total *= q**n - q**i
    return total


def is_isomorphic(m1: QMatroid, m2: QMatroid) -> IsoVerdict:
    """Rank-preserving GL(n,q) equivalence, with invariant fast paths.

    "no" verdicts name the separating invariant; exhaustive search only
    runs when |GL(n, q)| is small enough, otherwise "unknown".
    """
    if (m1.q, m1.n) != (m2.q, m2.n):
        raise InputError("isomorphism requires matching ground spaces")
    q, n = m1.q, m1.n
    if m1.rank(m1.E) != m2.rank(m2.E):
        return IsoVerdict("no", reason="total rank differs")
    z1, z2 = m1.cyclic_flats(), m2.cyclic_flats()
    if sorted((z.dim, f) for z, f in z1.pairs) != sorted((z.dim, f) for z, f in z2.pairs):
        return IsoVerdict("no", reason="cyclic-flat (dim, rank) multisets differ")
    if z1.shape_signature() != z2.shape_signature():
        return IsoVerdict("no", reason="cyclic-flat lattice shapes differ")
    if _gl_order(q, n) > GL_SEARCH_LIMIT:
        return IsoVerdict("unknown", reason="GL search budget exceeded")

    require_materialize_budget(q, n)
    table1 = full_rank_table(m1)
    table2 = full_rank_table(m2)
    # Group the subspaces by the highest coordinate their canonical rows
    # touch, so a partial basis image can be checked incrementally.
    strata: list[list[Subspace]] = [[] for _ in range(n + 1)]
    for s in table1:
        if s.dim == 0:
            continue
        top = max(i for r in s.coeff_rows() for i, x in enumerate(r) if x) + 1
        strata[top].append(s)

    vecs = Subspace.full(q, n).elements()[1:]  # every vector but zero
    # images of the unused coordinates of a partial map; strata[<= k]
    # never reach them
    pad = [pack_vector(q, n, [0] * n)] * n

    def dfs(chosen: list, span: Subspace):
        k = len(chosen)
        if k == n:
            return list(chosen)
        for v in vecs:
            if span.contains_vector(v):
                continue
            chosen.append(v)
            ok = True
            for s in strata[k + 1]:
                if table2[map_by_matrix(s, chosen + pad[k + 1:])] != table1[s]:
                    ok = False
                    break
            if ok:
                got = dfs(chosen, span.extend(v))
                if got is not None:
                    return got
            chosen.pop()
        return None

    got = dfs([], Subspace.zero(q, n))
    if got is None:
        return IsoVerdict("no", reason="exhaustive GL search found no rank-preserving map")
    images = [Subspace(q, n, [v]).coeff_rows()[0] for v in got]
    return IsoVerdict("yes", images=images)


# ---------------------------------------------------------------------------
# Exhaustive enumeration at tiny scale.

def enumerate_qmatroids(q: int, n: int):
    """All q-matroids on F_q^n up to isomorphism (q = 2, n <= 3).

    Depth-first search over rank assignments in dimension order, pruned
    by the cover bounds r(B) <= r(S) <= r(B) + 1 on hyperplanes B of S,
    fully verified at each leaf, and deduplicated by the GL search.
    """
    Subspace.zero(q, n)  # rejects a bad field size or a negative dimension
    if q != 2 or n > 3:
        raise BudgetError("exhaustive q-matroid enumeration is limited to q=2, n<=3")
    subs = sorted(enumerate_subspaces(q, n), key=Subspace.sort_key)
    reps: list[QMatroid] = []
    assignment: dict[Subspace, int] = {}

    def candidates(s: Subspace):
        if s.dim == 0:
            return [0]
        hypers = [assignment[b] for b in codim1_subspaces(s)]
        return range(max(hypers), min(s.dim, min(hypers) + 1) + 1)

    def walk(i: int):
        if i == len(subs):
            table = dict(assignment)
            if check_rank_axioms(q, n, table).ok:
                m = QMatroid(q, n, table=table)
                if not any(is_isomorphic(m, r).kind == "yes" for r in reps):
                    reps.append(m)
                    yield m
            return
        s = subs[i]
        for r in candidates(s):
            assignment[s] = r
            yield from walk(i + 1)
        assignment.pop(s, None)

    yield from walk(0)
