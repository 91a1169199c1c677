"""q-matroids represented by matrices over an extension field.

A full-row-rank k x n matrix G over GF(q^m) assigns to every
F_q-subspace U of F_q^n the GF(q^m)-rank of G * A^U, where A^U is the
transpose of U's canonical basis.  That assignment is a q-matroid rank
function.  This module materializes it, profiles the linear set cut out
by a two-row system on the projective line PG(1, q^m), reads evasivity
off that profile, and searches for coupling blocks X that make the
stacked matrix (G1 X; 0 G2) represent a free product of uniform
q-matroids.  Every route reads the images of coefficient vectors from
span tables, in vector_index order: the q-matroid of a matrix from the
table of all q^n of them (_image_table), the profile from one table per
coordinate, and the search from the table of each prefix of X, grown by
one column whenever an entry fixes one and tested there on the target's
bases whose last column it is.  The base field F_q is always the prime
field of G's field.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

from .errors import BudgetError, InputError, InvariantError
from .gf import ExtField, Matrix, echelon, matrix_rank, reduce_vector, span_rank
from .qmatroid import QMatroid
from .subspace import Subspace, enumerate_subspaces, vector_index

# Candidate coupling blocks tried by search_x.  The largest worked case,
# one free row over GF(2^7) with two unknown entries, sits exactly at
# this bound.
SEARCH_X_LIMIT = 1 << 14

# Vectors streamed while profiling a linear set (q^n of them).
PROFILE_VECTOR_LIMIT = 1 << 16


def _columns(G: Matrix) -> list[tuple[int, ...]]:
    return list(zip(*G.rows))


def _image_table(field, cols: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The images of all q^n coefficient vectors, in vector_index order.

    Entry i is the combination of `cols` whose coefficient on column j
    is the j-th base-q digit of i, read off one span table per
    coordinate.  The first q^j entries are the table of the first j
    columns.
    """
    return list(zip(*(field.span_table(row) for row in zip(*cols))))


class QSystem:
    """An F_q-subspace of F_{q^m}^k, given by an independent generating set.

    The generators are the columns of a representing matrix: they must
    be linearly independent over the prime field F_q, which the subspace
    kernel tests on their q-ary coordinate expansions, and must span the
    full ambient space over F_{q^m}.
    """

    __slots__ = ("field", "k", "generators")

    def __init__(self, field: ExtField, k: int, generators):
        self._init(field, k, Matrix(field, generators).rows)  # every entry is a field element

    def _init(self, field: ExtField, k: int, gens: tuple) -> None:
        for g in gens:
            if len(g) != k:
                raise InputError(f"generator length {len(g)} != ambient dimension {k}")
        if Subspace(field.q, k * field.m, map(field.pack, gens)).dim != len(gens):
            raise InputError("generators are linearly dependent over the prime field")
        if span_rank(field, gens) != k:
            raise InputError("generators do not span the ambient space over the extension field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, name, value):
        raise AttributeError("QSystem is immutable")

    @classmethod
    def from_matrix(cls, G: Matrix) -> "QSystem":
        system = object.__new__(cls)
        system._init(G.field, G.nrows, tuple(zip(*G.rows)))  # Matrix checked the entries
        return system

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n(self) -> int:
        return len(self.generators)

    def __repr__(self):
        f = self.field
        return f"QSystem(GF({f.q}^{f.m}), k={self.k}, n={self.n})"


def qmatroid_from_matrix(G: Matrix) -> QMatroid:
    """The q-matroid on F_q^n whose rank of U is the field rank of G * A^U.

    q is the prime of G's field.  The whole rank table is materialized,
    one small elimination per subspace of F_q^n on the images of its
    basis rows, read from the image table by vector_index.
    """
    field, k, n = G.field, G.nrows, G.ncols
    q = field.q
    if matrix_rank(G) != k:
        raise InputError("matrix does not have full row rank")
    subspaces = enumerate_subspaces(q, n)
    # Drawing the zero space runs the stream's budget check before the
    # table of q^n images is built.
    table = {next(subspaces): 0}
    images = _image_table(field, _columns(G))
    table.update((s, span_rank(field, [images[vector_index(q, n, v)] for v in s.rows]))
                 for s in subspaces)
    return QMatroid.from_rank_table(q, n, table)


def block_rep(G1: Matrix, G2: Matrix, X: Matrix) -> Matrix:
    """Stack two representations with a coupling block: (G1 X; 0 G2)."""
    if not (G1.field == G2.field == X.field):
        raise InputError("block assembly needs all three matrices over one field")
    if X.nrows != G1.nrows or X.ncols != G2.ncols:
        raise InputError(
            f"coupling block must be {G1.nrows}x{G2.ncols}, got {X.nrows}x{X.ncols}"
        )
    field = G1.field
    top = [tuple(r1) + tuple(rx) for r1, rx in zip(G1.rows, X.rows)]
    bottom = [(field.zero,) * G1.ncols + tuple(r2) for r2 in G2.rows]
    return Matrix(field, top + bottom)


@dataclass(frozen=True)
class LinearSetProfile:
    """Points of PG(1, q^m) met by a system, with their weights.

    Each point is a normalized representative (first nonzero coordinate
    scaled to 1); its weight is the F_q-dimension of the system's
    intersection with the point viewed as an m-dimensional F_q-space.
    The weights partition the nonzero system vectors.
    """

    field: ExtField
    rank: int
    points: tuple

    def __post_init__(self):
        q = self.field.q
        if sum([q**w for _, w in self.points]) - len(self.points) != q**self.rank - 1:
            raise InputError("profile weights do not partition the nonzero system vectors")

    def weights(self) -> list[int]:
        return sorted(w for _, w in self.points)

    def club_index(self) -> Optional[int]:
        """i when all points have weight 1 except exactly one of weight i >= 2, else None."""
        heavy = [w for _, w in self.points if w >= 2]
        if len(heavy) == 1:
            return heavy[0]
        return None

    def to_dict(self) -> dict:
        f = self.field
        return {
            "rank": self.rank,
            "points": [
                {"point": [f.format_element(x) for x in pt], "weight": w}
                for pt, w in self.points
            ],
        }


def linear_set_profile(system: QSystem) -> LinearSetProfile:
    """Profile the linear set of a rank-n system on the projective line."""
    if system.k != 2:
        raise InputError(f"linear-set profiles are computed on PG(1, q^m); ambient dimension is {system.k}")
    field, q, n = system.field, system.q, system.n
    if q**n > PROFILE_VECTOR_LIMIT:
        raise BudgetError(f"profiling streams q^n = {q**n} vectors, over the budget {PROFILE_VECTOR_LIMIT}")
    # one table per coordinate; a nonzero vector (y0, y1) lies on the
    # point (0, 1) when y0 = 0, else on (1, y1 / y0)
    t0, t1 = (field.span_table(row) for row in zip(*system.generators))
    ratios = Counter(field.quotients(compress(t1, t0), compress(t0, t0)))
    axis = t0.count(0) - 1
    # |S meet P| is an F_q-subspace, so each count must be q^w - 1
    weights = {q**w - 1: w for w in range(1, n + 1)}
    try:
        points = ([((0, 1), weights[axis])] if axis else []) + [
            ((1, r), weights[ratios[r]]) for r in sorted(ratios)]
    except KeyError:
        raise InvariantError("point count is not a power of q") from None
    return LinearSetProfile(field=field, rank=n, points=tuple(points))


def is_i_club(system: QSystem) -> Optional[int]:
    """The club index of the system's linear set, if it has one.

    Returns i when all points have weight 1 except exactly one of
    weight i >= 2, and None otherwise (in particular for scattered
    sets, where every weight is 1).
    """
    return linear_set_profile(system).club_index()


def is_evasive(system: QSystem, k1: int, h: int) -> bool:
    """Whether every hyperplane avoiding F_{q^m}^{k1} + 0 meets the system thinly.

    The family consists of the hyperplanes of F_{q^m}^2 that do not
    contain the span of the first k1 coordinates; evasivity holds when
    each of them intersects the system in F_q-dimension at most h.  A
    hyperplane of F_{q^m}^2 is a point of PG(1, q^m), and it meets the
    system in that point's profile weight (0 when unlisted); the one
    containing the first axis is the point (1, 0).  So the verdict reads
    the linear-set profile, which takes k = 2 only.
    """
    if not 1 <= k1 <= system.k:
        raise InputError(f"distinguished block dimension {k1} out of range for ambient {system.k}")
    if h < 0:
        raise InputError("intersection bound must be nonnegative")
    points = linear_set_profile(system).points
    return all(w <= h for pt, w in points if k1 == 2 or pt != (1, 0))


def _split_seam(q: int, n: int, n1: int) -> Subspace:
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n1)]
    return Subspace.from_coeff_rows(q, n, rows)


def _free_product_flats(q: int, n: int, n1: int, k1: int, k: int) -> dict:
    """The cyclic flats of U(k1, n1) free-product U(k - k1, n - n1), with ranks.

    They are 0, the seam F_q^{n1} + 0 and F_q^n, at ranks 0, k1 and k,
    when both factors are proper uniforms.
    """
    return {Subspace.zero(q, n): 0, _split_seam(q, n, n1): k1, Subspace.full(q, n): k}


def verify_free_product_rep(G: Matrix, n1: int, k1: int) -> bool:
    """Whether G represents the free product of two uniform q-matroids.

    Builds the q-matroid of G, over the prime field of G's field, and
    tests that its cyclic flats are exactly those of U_{k1,n1}
    free-product U_{k-k1,n-n1} (see _free_product_flats).
    """
    k, n = G.nrows, G.ncols
    if not 0 < n1 < n:
        raise InputError(f"split position {n1} must be strictly inside 0..{n}")
    if not 0 < k1 < k:
        raise InputError(f"left rank {k1} must be strictly inside 0..{k}")
    m = qmatroid_from_matrix(G)
    return dict(m.cyclic_flats().pairs) == _free_product_flats(G.field.q, n, n1, k1, k)


def _as_block(field, entries, k1: int, n2: int) -> Matrix:
    return Matrix(field, [entries[i * n2:(i + 1) * n2] for i in range(k1)])


def coupling_search_size(G1: Matrix, G2: Matrix) -> int:
    """Number of coupling blocks search_x enumerates for this pair.

    With a single row the first entry is pinned to zero: X -> X + l*G2
    keeps the row space of (G1 X; 0 G2), and some l zeroes the entry once
    G2's first column is nonzero, as it is for every hit (the contraction
    U(k2, n2) has no loops).  So the count is order**(k1*n2 - 1) in that
    case and order**(k1*n2) otherwise.
    """
    if G1.field != G2.field:
        raise InputError("both factors must be represented over one field")
    k1 = G1.nrows
    n2 = G2.ncols
    free = k1 * n2 - 1 if k1 == 1 else k1 * n2
    if free < 1:
        raise InputError("no coupling entries to search")
    return G1.field.order**free


def _keeps_rank(field, table, level: dict, k: int) -> bool:
    """Whether every basis of a level has rank k under the image table.

    A level maps the first k - 1 rows of its bases, as image indices, to
    their last rows; the first rows are eliminated once for them all.
    """
    for head, lasts in level.items():
        rows = echelon(field, [table[i] for i in head])
        if len(rows) < k - 1:
            return False
        for i in lasts:
            if not any(reduce_vector(field, table[i], rows)):
                return False
    return True


def search_x(G1: Matrix, G2: Matrix) -> list[Matrix]:
    """All coupling blocks X making (G1 X; 0 G2) represent a uniform free product.

    The q-matroids live over the prime field of the matrices' field.
    Exhaustive over the whole entry space (first entry normalized to
    zero when G1 has one row), in lexicographic order of the entry
    encodings.  The target is the q-matroid with the cyclic flats of
    _free_product_flats, the profile verify_free_product_rep tests for,
    and its bases are its k-spaces of rank k.  A q-matroid is determined
    by its bases, so a candidate passes when every target basis keeps
    rank k under the candidate's image table.  The target's other
    k-spaces meet the seam F_q^{n1} + 0 in more than k1 dimensions, and
    G has rank k1 on the seam, so they have rank below k under every
    candidate: passing means having exactly the target's bases.

    The entries are walked depth first.  X is row-major, so setting
    entry (k1 - 1) * n2 + t fixes column n1 + t of G, and the image
    table of the prefix grows by that column: its first q^j entries are
    the table of the first j columns.  Each basis is filed under the
    last column its rows use and tested once per prefix that fixes that
    column; a failure there rules out every completion of the prefix.
    The first hit is re-verified literally.
    """
    count = coupling_search_size(G1, G2)
    field = G1.field
    q = field.q
    k1, n1 = G1.nrows, G1.ncols
    k2, n2 = G2.nrows, G2.ncols
    if matrix_rank(G1) != k1 or matrix_rank(G2) != k2:
        raise InputError("factor matrices must have full row rank")
    if not (k1 < n1 and k2 < n2):
        raise InputError("a uniform free product with this cyclic-flat profile needs k_i < n_i on both sides")
    if count > SEARCH_X_LIMIT:
        raise BudgetError(f"search space has {count} candidates, over the budget {SEARCH_X_LIMIT}")
    n, k = n1 + n2, k1 + k2
    target = QMatroid.from_cyclic_flats(q, n, _free_product_flats(q, n, n1, k1, k).items())
    # levels[t]: the bases whose last column is n1 + t (or earlier, for t = 0)
    levels: list[dict] = [{} for _ in range(n2)]
    for s in enumerate_subspaces(q, n, [k]):
        if target.rank(s) == k:
            rows = [vector_index(q, n, v) for v in s.rows]
            t = 0
            while max(rows) >= q ** (n1 + t + 1):
                t += 1
            levels[t].setdefault(tuple(rows[:-1]), []).append(rows[-1])
    g2cols = _columns(G2)
    free, fixing = k1 * n2, (k1 - 1) * n2
    entries, hits = [0] * free, []

    def walk(d: int, coords: list) -> None:
        """Every completion of entries[:d], given one span table per
        coordinate of the columns fixed so far."""
        if d == free:
            hits.append(tuple(entries))
            return
        t = d - fixing
        # the pinned entry (see coupling_search_size) is zero
        for x in range(1 if d == 0 and k1 == 1 else field.order):
            entries[d] = x
            if t < 0:
                walk(d + 1, coords)
                continue
            col = [entries[i * n2 + t] for i in range(k1)] + list(g2cols[t])
            grown = [field.span_table((y,), table) for y, table in zip(col, coords)]
            if _keeps_rank(field, list(zip(*grown)), levels[t], k):
                walk(d + 1, grown)

    left = [g1col + (field.zero,) * k2 for g1col in _columns(G1)]
    walk(0, [field.span_table(row) for row in zip(*left)])
    if hits:
        first = _as_block(field, hits[0], k1, n2)
        if not verify_free_product_rep(block_rep(G1, G2, first), n1, k1):
            raise InvariantError("first hit failed the literal verification")
    return [_as_block(field, entries, k1, n2) for entries in hits]
