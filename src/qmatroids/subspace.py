"""Canonical subspaces of F_q^n and the lattice operations on them.

A subspace is identified by the reduced row echelon basis of its row
space, so equality and hashing are exact and independent of how the
space was presented.  All objects here are immutable values, safe to
share between threads; the only mutation anywhere is idempotent
caching: a subspace's element mask, per field and dimension the zero
vector, the unit vectors and the hyperplane functionals, and the small
lattices below.

Vectors have two packed formats.  For q = 2 a vector is a machine
integer with bit i holding coordinate i (the pivot of a row is its
lowest set bit); for odd primes it is a tuple of residues.  Only the
vector primitives know the two formats: the elimination kernels
`_rref` and `_reduce`, `_nonzero`, `_axpy` (y + c*x), `_concat` and
`_split` of coordinate blocks, `pack_vector`, `unpack_vector`,
`vector_index` and `Subspace.elements`.  Every lattice operation,
`Subspace.extend` included, is written once on top of them.  GF(2)
keeps its own bit-packed elimination because it is several times faster
than the generic one on residue tuples, and elimination is where the
sweeps spend their time.  Its XOR listing of elements builds
the element masks of certificate ranks twice as fast as `_axpy`.

Scale limits are deliberate: q is a prime at most 13, and any function
that enumerates vectors or subspaces refuses ambients with more than
2^10 vectors (larger jobs must stream through dimension strata on the
caller's side); element masks stop at 2^13 vectors.

A lattice of at most SMALL_LATTICE_LIMIT subspaces is built once per
process: its strata, and from the first hyperplane_walk on their
hyperplane ids, are kept in a memo that every sweep reads, so all
sweeps of F_2^6 meet the same Subspace objects and each element mask
is built once.  There are 28 such lattices, 7563 subspaces in all;
bigger lattices stream.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, InputError, InvariantError
from .gf import _check_base_prime

# Enumeration guards: streaming over vectors/atoms of an ambient space is
# allowed up to 2^10 vectors, and callers that materialize every subspace
# of a lattice should keep the total count within 2^16.  Element masks,
# one bit per vector of the ambient, are built up to 2^13 vectors.
STREAM_AMBIENT_LIMIT = 1 << 10
MATERIALIZE_LIMIT = 1 << 16
MASK_AMBIENT_LIMIT = 1 << 13
# A q-matroid document may name an ambient of at most 2^64 vectors:
# building its ground space F_q^n lists n unit vectors of length n.
DOCUMENT_AMBIENT_LIMIT = 1 << 64
# Lattices with at most this many subspaces are kept once built, and are
# small enough for free products to be checked by a full sweep.
SMALL_LATTICE_LIMIT = 4096


# ---------------------------------------------------------------------------
# Elimination kernels and vector primitives.

def _rref_gf2(rows: Iterable[int]) -> tuple[int, ...]:
    piv: dict[int, int] = {}
    for r in rows:
        while r:
            b = r & -r
            p = piv.get(b)
            if p is None:
                piv[b] = r
                break
            r ^= p
    bits = sorted(piv)
    for i in range(len(bits) - 1, -1, -1):
        r = piv[bits[i]]
        for b2 in bits[i + 1:]:
            if r & b2:
                r ^= piv[b2]
        piv[bits[i]] = r
    return tuple(piv[b] for b in bits)


def _pivot_index(row: Sequence[int]) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise ValueError("zero row has no pivot")


def _rref_q(rows, q: int) -> tuple[tuple[int, ...], ...]:
    piv: dict[int, list[int]] = {}
    for r in rows:
        r = list(r)
        while True:
            p = next((i for i, x in enumerate(r) if x), None)
            if p is None:
                break
            if p in piv:
                f = r[p]
                pr = piv[p]
                r = [(x - f * y) % q for x, y in zip(r, pr)]
            else:
                inv = pow(r[p], q - 2, q)
                piv[p] = [(inv * x) % q for x in r]
                break
    cols = sorted(piv)
    for i in range(len(cols) - 1, -1, -1):
        r = piv[cols[i]]
        for p2 in cols[i + 1:]:
            f = r[p2]
            if f:
                pr = piv[p2]
                r = [(x - f * y) % q for x, y in zip(r, pr)]
        piv[cols[i]] = r
    return tuple(tuple(piv[p]) for p in cols)


def _reduce_gf2(v: int, rows: Sequence[int]) -> int:
    for r in rows:
        if v & (r & -r):
            v ^= r
    return v


def _reduce_q(v, rows, q: int):
    v = list(v)
    for r in rows:
        f = v[_pivot_index(r)]
        if f:
            v = [(x - f * y) % q for x, y in zip(v, r)]
    return tuple(v)


def _rref(q: int, rows: Iterable) -> tuple:
    """Canonical basis (RREF, increasing pivots) of the span of rows."""
    return _rref_gf2(rows) if q == 2 else _rref_q(rows, q)


def _reduce(q: int, v, rows: Sequence):
    """v with its entries at the pivots of the RREF rows cleared."""
    return _reduce_gf2(v, rows) if q == 2 else _reduce_q(v, rows, q)


def _nonzero(q: int, v) -> bool:
    return v != 0 if q == 2 else any(v)


def _axpy(q: int, c: int, x, y):
    """y + c*x, for c in (-q, q); y itself when c is 0."""
    if not c:
        return y
    if q == 2:
        return y ^ x
    return tuple((b + c * a) % q for a, b in zip(x, y))


def _concat(q: int, n: int, u, v):
    """The vector (u, v), with u in F_q^n."""
    return u | (v << n) if q == 2 else tuple(u) + tuple(v)


def _split(q: int, n: int, r) -> tuple:
    """(the first n coordinates of r, the remaining coordinates)."""
    if q == 2:
        return r & ((1 << n) - 1), r >> n
    return r[:n], r[n:]


def pack_vector(q: int, n: int, coeffs: Sequence[int]):
    if len(coeffs) != n:
        raise InputError(f"vector length {len(coeffs)} != ambient dimension {n}")
    if q == 2:
        return sum((1 << i) for i, c in enumerate(coeffs) if c % 2)
    return tuple(c % q for c in coeffs)


def unpack_vector(q: int, n: int, v) -> list[int]:
    if q == 2:
        return [(v >> i) & 1 for i in range(n)]
    return list(v)


def vector_index(q: int, n: int, v) -> int:
    """Base-q positional index of a vector, used for element masks."""
    if q == 2:
        return v
    idx = 0
    for c in reversed(v):
        idx = idx * q + c
    return idx


@functools.lru_cache(maxsize=64)
def _zero(q: int, n: int):
    return pack_vector(q, n, [0] * n)


@functools.lru_cache(maxsize=64)
def _units(q: int, n: int) -> tuple:
    """The standard basis e_0, ..., e_(n-1) of F_q^n."""
    return tuple(pack_vector(q, n, [int(j == i) for j in range(n)]) for i in range(n))


class Subspace:
    """A subspace of F_q^n, stored as its canonical RREF basis."""

    __slots__ = ("q", "n", "rows", "_mask", "_hash")

    def __init__(self, q: int, n: int, vectors: Iterable = (), *, _rows=None):
        _check_base_prime(q)
        if n < 0:
            raise InputError("ambient dimension must be nonnegative")
        if _rows is None:
            _rows = _rref(q, vectors)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", _rows)
        object.__setattr__(self, "_mask", None)
        object.__setattr__(self, "_hash", hash((q, n, _rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _make(cls, q: int, n: int, rows) -> "Subspace":
        return cls(q, n, _rows=rows)

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls._make(q, n, ())

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls._make(q, n, _units(q, n))

    @classmethod
    def from_coeff_rows(cls, q: int, n: int, basis: Iterable[Sequence[int]]) -> "Subspace":
        return cls(q, n, [pack_vector(q, n, row) for row in basis])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self._hash == other._hash
            and (self.q, self.n, self.rows) == (other.q, other.n, other.rows)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(q={self.q}, n={self.n}, basis={self.coeff_rows()})"

    def sort_key(self):
        return (len(self.rows), self.rows)

    def coeff_rows(self) -> list[list[int]]:
        return [unpack_vector(self.q, self.n, r) for r in self.rows]

    # -- membership -----------------------------------------------------
    def contains_vector(self, v) -> bool:
        return not _nonzero(self.q, _reduce(self.q, v, self.rows))

    def contains(self, other: "Subspace") -> bool:
        _check_same_ambient(self, other)
        return all(self.contains_vector(v) for v in other.rows)

    def extend(self, v) -> "Subspace":
        """Span of self and one extra vector."""
        vred = _reduce(self.q, v, self.rows)
        if not _nonzero(self.q, vred):
            return self
        return Subspace._make(self.q, self.n, _rref(self.q, self.rows + (vred,)))

    # -- element streams -------------------------------------------------
    def elements(self) -> list:
        """All q^dim vectors, in binary/positional counting order over the basis."""
        if self.q == 2:
            els = [0]
            for r in self.rows:
                els += [e ^ r for e in els]
            return els
        els = [_zero(self.q, self.n)]
        for r in self.rows:
            els = [_axpy(self.q, c, r, e) for c in range(self.q) for e in els]
        return els

    def element_mask(self) -> int:
        """Bitmask over vector indices of the ambient space; cached."""
        m = self._mask
        if m is None:
            q, n = self.q, self.n
            if q**n > MASK_AMBIENT_LIMIT:
                raise BudgetError(f"element mask for q^n = {q**n} exceeds the supported bound")
            m = 0
            for v in self.elements():
                m |= 1 << vector_index(q, n, v)
            object.__setattr__(self, "_mask", m)
        return m

    # -- JSON ------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "basis": self.coeff_rows()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Subspace":
        q, n = read_header(doc, "subspace")
        try:
            basis = doc["basis"]
        except KeyError as e:
            raise InputError(f"malformed subspace document: {e}") from None
        if type(basis) is not list or any(type(row) is not list for row in basis):
            raise InputError(f"subspace basis {basis!r} is not a list of rows")
        for row in basis:  # pack_vector reads each coefficient mod q
            for c in row:
                if type(c) is not int or not 0 <= c < q:  # type(): True is an int
                    raise InputError(f"subspace basis entry {c!r} is not an integer in 0..{q - 1}")
        given = [pack_vector(q, n, row) for row in basis]
        s = cls(q, n, given)
        if list(s.rows) != given:
            raise InputError(
                "subspace basis must be in reduced row echelon form with "
                f"increasing pivots; canonical form of the given span is {s.coeff_rows()}"
            )
        return s


def json_int(x, key: str, kind: str) -> int:
    """x, the value of a document's key, when it is a JSON integer:
    int() would pass a bool, truncate 2.9 or parse "1"."""
    if type(x) is not int:
        raise InputError(f"{kind} document: {key!r} is not an integer, got {x!r}")
    return x


def read_header(doc: dict, kind: str) -> tuple[int, int]:
    """(q, n) of a document, both JSON integers."""
    try:
        q, n = doc["q"], doc["n"]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed {kind} document: {e}") from None
    return json_int(q, "q", kind), json_int(n, "n", kind)


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if (a.q, a.n) != (b.q, b.n):
        raise InputError(
            f"ambient mismatch: F_{a.q}^{a.n} vs F_{b.q}^{b.n}"
        )


# ---------------------------------------------------------------------------
# Lattice operations.

def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return Subspace._make(a.q, a.n, _rref(a.q, a.rows + b.rows))


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce [[A A],[B 0]]; zero-left rows carry the intersection."""
    _check_same_ambient(a, b)
    q, n = a.q, a.n
    zero = _zero(q, n)
    rows = [_concat(q, n, r, r) for r in a.rows] + [_concat(q, n, r, zero) for r in b.rows]
    halves = (_split(q, n, r) for r in _rref(q, rows))
    inter = [right for left, right in halves if not _nonzero(q, left)]
    return Subspace._make(q, n, _rref(q, inter))


def orthogonal_complement(a: Subspace) -> Subspace:
    """Null space under the standard dot product on F_q^n."""
    q, n = a.q, a.n
    units = _units(q, n)
    rows = a.coeff_rows()
    pivots = [_pivot_index(r) for r in rows]
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = units[f]
        for r, p in zip(rows, pivots):
            if r[f]:
                v = _axpy(q, -r[f], units[p], v)
        out.append(v)
    return Subspace._make(q, n, _rref(q, out))


def reverse(a: Subspace) -> Subspace:
    """Image under the coordinate reversal (x_1..x_n) -> (x_n..x_1)."""
    q, n = a.q, a.n
    rows = [pack_vector(q, n, r[::-1]) for r in a.coeff_rows()]
    return Subspace._make(q, n, _rref(q, rows))


def phi(a: Subspace) -> Subspace:
    """The anti-isomorphism: coordinate reversal composed with complement."""
    return reverse(orthogonal_complement(a))


# ---------------------------------------------------------------------------
# Streams of distinguished subspaces.

def _check_stream_budget(q: int, n: int) -> None:
    if q**n > STREAM_AMBIENT_LIMIT:
        raise BudgetError(
            f"streaming over an ambient with q^n = {q**n} vectors exceeds "
            f"the budget of {STREAM_AMBIENT_LIMIT}"
        )


def atom_vectors(a: Subspace) -> Iterator:
    """Canonical representatives of the 1-dim subspaces of a: the vectors
    whose first nonzero coordinate is 1, in the counting order of
    `elements`."""
    q = a.q
    if q**a.dim > STREAM_AMBIENT_LIMIT:
        raise BudgetError(f"atom stream over {q}^{a.dim} vectors exceeds the budget")
    # A combination of RREF rows leads with the coefficient of its first
    # row used, so the atoms over rows[:i+1] are those over rows[:i], then
    # rows[i], then rows[i] times 1..q-1 added to each earlier atom.
    found: list = []
    for r in a.rows:
        found += [r] + [_axpy(q, c, r, v) for c in range(1, q) for v in found]
    yield from found


def atoms(a: Subspace) -> Iterator[Subspace]:
    for v in atom_vectors(a):
        yield Subspace._make(a.q, a.n, (v,))


@functools.lru_cache(maxsize=None)
def _functionals(q: int, d: int) -> tuple:
    """The functionals c on F_q^d, one per hyperplane in atom order, each
    scaled so that its last nonzero coordinate p is 1, as
    (p, (-c_i for i < p))."""
    out = []
    for v in atom_vectors(Subspace.full(q, d)):
        c = unpack_vector(q, d, v)
        p = max(i for i, x in enumerate(c) if x)
        inv = pow(c[p], q - 2, q)
        out.append((p, tuple(-c[i] * inv % q for i in range(p))))
    return tuple(out)


def _hyperplane_rows(q: int, rows: tuple) -> Iterator[tuple]:
    """The canonical rows of each hyperplane of the span of the RREF rows,
    one per functional c.  With c_p = 1 at the last nonzero coordinate p,
    the rows rows[i] - c_i*rows[p] (i != p) are already in RREF: each
    keeps the pivot of rows[i] (left of row p's pivot when c_i != 0),
    and rows[p] is zero at every other pivot.  Rows after p are unchanged."""
    for p, coeffs in _functionals(q, len(rows)):
        rp = rows[p]
        yield tuple([_axpy(q, c, rp, r) if c else r for c, r in zip(coeffs, rows)]) + rows[p + 1:]


def codim1_subspaces(a: Subspace) -> Iterator[Subspace]:
    """The hyperplanes of a (inside a), one per functional on its coordinates."""
    for rows in _hyperplane_rows(a.q, a.rows):
        yield Subspace._make(a.q, a.n, rows)


def rref_rows_for_pattern(q: int, n: int, pattern) -> Iterator[tuple]:
    """Canonical bases whose pivots sit exactly at the given columns,
    free entries swept in positional counting order."""
    units = _units(q, n)
    choices = []
    for p in pattern:
        # the row pivoted at p: 1 there, anything at later non-pivot
        # columns, the last column varying fastest
        row_choices = [units[p]]
        for c in range(p + 1, n):
            if c not in pattern:
                row_choices = [_axpy(q, t, units[c], v) for v in row_choices for t in range(q)]
        choices.append(row_choices)
    return itertools.product(*choices)


def _stream_stratum(q: int, n: int, k: int) -> Iterator[Subspace]:
    """The k-dimensional subspaces of F_q^n, built one by one."""
    for pattern in itertools.combinations(range(n), k):
        for rows in rref_rows_for_pattern(q, n, pattern):
            yield Subspace._make(q, n, rows)


# (q, n) -> [strata, hyperplane ids]: the strata as tuples of Subspace,
# and once a hyperplane_walk has run to the end, the ids of each stratum
# as one flat array, subspace by subspace.
_LATTICES: dict[tuple[int, int], list] = {}


def _small_lattice(q: int, n: int) -> list | None:
    """The memo entry of F_q^n, built on first use; None for a lattice
    above SMALL_LATTICE_LIMIT, which streams."""
    entry = _LATTICES.get((q, n))
    if entry is None:
        if n < 0 or q**n > STREAM_AMBIENT_LIMIT or lattice_size(q, n) > SMALL_LATTICE_LIMIT:
            return None
        strata = tuple(tuple(_stream_stratum(q, n, k)) for k in range(n + 1))
        entry = _LATTICES[(q, n)] = [strata, None]
    return entry


def enumerate_subspaces(q: int, n: int, dims: Iterable[int] | None = None) -> Iterator[Subspace]:
    """Every subspace of F_q^n exactly once, grouped by ascending dimension.

    Deterministic order within a dimension: pivot patterns
    lexicographically, then the free entries in positional counting order.
    A small lattice (see SMALL_LATTICE_LIMIT) yields the same objects on
    every call.
    """
    _check_base_prime(q)
    _check_stream_budget(q, n)
    if dims is None:
        dims = range(n + 1)
    entry = _small_lattice(q, n)
    for k in dims:
        if not 0 <= k <= n:
            raise InputError(f"dimension {k} out of range for ambient {n}")
        yield from (_stream_stratum(q, n, k) if entry is None else entry[0][k])


def subspaces_of(a: Subspace, dims: Iterable[int] | None = None) -> Iterator[Subspace]:
    """Every subspace of a (not of the whole ambient), ascending dimension."""
    q = a.q
    if a.dim == a.n:
        yield from enumerate_subspaces(q, a.n, dims)
        return
    qm = QuotientMap(Subspace.zero(q, a.n), a)
    for t in enumerate_subspaces(q, a.dim, dims):
        yield qm.preimage(t)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InvariantError(f"q-binomial [{n} choose {k}]_{q} is not an integer")
    return num // den


def hyperplane_walk(q: int, n: int) -> Iterator[tuple[list[Subspace], list[Sequence[int]]]]:
    """The lattice of F_q^n one dimension stratum at a time.

    Yields (stratum, hyperplanes) for d = 0..n: the d-dimensional
    subspaces in enumeration order, and for each of them the ids
    (positions in the previous stratum) of its hyperplanes, in
    codim1_subspaces order.  Hyperplanes are looked up by their rows, so
    no elimination runs.  A small lattice (see SMALL_LATTICE_LIMIT) keeps
    the ids of the first walk that runs to the end and later walks
    replay them; above the limit the walk holds at most two adjacent
    strata.
    """
    entry = _small_lattice(q, n)
    if entry is not None and entry[1] is not None:
        for stratum, ids in zip(*entry):
            h = len(ids) // len(stratum)  # (q^d - 1)/(q - 1) hyperplanes each
            yield list(stratum), [ids[i * h:(i + 1) * h] for i in range(len(stratum))]
        return
    index: dict[tuple, int] = {}
    built = []
    for d in range(n + 1):
        stratum = list(enumerate_subspaces(q, n, [d]))
        expect = gaussian_binomial(n, d, q)
        if len(stratum) != expect:
            raise InvariantError(
                f"walk met {len(stratum)} subspaces of dim {d}, expected {expect}"
            )
        try:
            hypers = [tuple([index[h] for h in _hyperplane_rows(q, s.rows)]) for s in stratum]
        except KeyError as e:
            raise InvariantError(f"hyperplane rows {e} are not in the stratum below") from None
        if entry is not None:
            built.append(array("H", itertools.chain.from_iterable(hypers)))
        yield stratum, hypers
        index = {s.rows: i for i, s in enumerate(stratum)}
    if entry is not None:
        entry[1] = tuple(built)


def lattice_size(q: int, n: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def require_materialize_budget(q: int, n: int) -> None:
    size = lattice_size(q, n)
    if size > MATERIALIZE_LIMIT:
        raise BudgetError(
            f"materializing all {size} subspaces of F_{q}^{n} exceeds the "
            f"budget of {MATERIALIZE_LIMIT}"
        )


# ---------------------------------------------------------------------------
# Quotients B/A with a deterministic complement.

def _complement_rows(sub: Subspace, sup: Subspace) -> tuple:
    """The rows of sup, in order, that each raise the span of sub and the
    rows kept before them.  They are RREF rows of sup, so they are
    themselves a canonical basis."""
    kept = []
    probe = sub
    for r in sup.rows:
        ext = probe.extend(r)
        if ext.dim > probe.dim:
            kept.append(r)
            probe = ext
    return tuple(kept)


class QuotientMap:
    """Coordinates on B/A for A <= B, via the lexicographically first
    complement drawn from B's canonical basis rows."""

    __slots__ = ("q", "n", "dim", "sub", "sup", "kept", "_elim", "_lifts")

    def __init__(self, sub: Subspace, sup: Subspace):
        _check_same_ambient(sub, sup)
        if not sup.contains(sub):
            raise InputError("quotient requires a nested pair of subspaces")
        q, n = sub.q, sub.n
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "sup", sup)
        kept = _complement_rows(sub, sup)
        k = len(kept)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "dim", k)
        # Rows of sub carry the tag 0 and kept row i the tag -e_i, so
        # reducing (v, 0) leaves (0, coordinates of v over kept).  The rows
        # (e_i, -kept_i) turn (w, 0) into (0, lift of w) the same way.
        units, zero_k, zero_n = _units(q, k), _zero(q, k), _zero(q, n)
        elim = [_concat(q, n, r, zero_k) for r in sub.rows]
        elim += [_concat(q, n, r, _axpy(q, -1, e, zero_k)) for r, e in zip(kept, units)]
        object.__setattr__(self, "_elim", _rref(q, elim))
        lifts = tuple(_concat(q, k, e, _axpy(q, -1, r, zero_n)) for r, e in zip(kept, units))
        object.__setattr__(self, "_lifts", lifts)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    def to_quotient(self, v):
        """Coordinates of a vector of sup over the chosen complement."""
        q, n = self.q, self.n
        tagged = _concat(q, n, v, _zero(q, self.dim))
        rest, coords = _split(q, n, _reduce(q, tagged, self._elim))
        if _nonzero(q, rest):
            raise InputError("vector outside the covering subspace")
        return coords

    def lift(self, w):
        """The chosen lift of a quotient vector back into sup."""
        q, k = self.q, self.dim
        tagged = _concat(q, k, w, _zero(q, self.n))
        return _split(q, k, _reduce(q, tagged, self._lifts))[1]

    def map_subspace(self, w: Subspace) -> Subspace:
        """Image in F_q^dim of a subspace with sub <= w <= sup."""
        rows = [self.to_quotient(r) for r in w.rows]
        return Subspace(self.q, self.dim, rows)

    def preimage(self, t: Subspace) -> Subspace:
        """The subspace of sup corresponding to t <= F_q^dim."""
        if (t.q, t.n) != (self.q, self.dim):
            raise InputError("quotient-side subspace has the wrong ambient")
        vectors = list(self.sub.rows) + [self.lift(r) for r in t.rows]
        return Subspace(self.q, self.n, vectors)


# ---------------------------------------------------------------------------
# Block decompositions F_q^n = F_q^n1 + F_q^n2.

class DirectSumContext:
    """Embeddings, projections and the slice decomposition for a fixed
    block split of the coordinates."""

    __slots__ = ("q", "n1", "n2", "n")

    def __init__(self, q: int, n1: int, n2: int):
        _check_base_prime(q)
        if n1 < 0 or n2 < 0:
            raise InputError("block dimensions must be nonnegative")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "n", n1 + n2)

    def __setattr__(self, name, value):
        raise AttributeError("DirectSumContext is immutable")

    def embed1(self, a: Subspace) -> Subspace:
        self._expect(a, self.n1)
        pad = _zero(self.q, self.n2)
        rows = tuple(_concat(self.q, self.n1, r, pad) for r in a.rows)
        return Subspace._make(self.q, self.n, rows)

    def embed2(self, a: Subspace) -> Subspace:
        self._expect(a, self.n2)
        pad = _zero(self.q, self.n1)
        rows = tuple(_concat(self.q, self.n1, pad, r) for r in a.rows)
        return Subspace._make(self.q, self.n, rows)

    def project1(self, a: Subspace) -> Subspace:
        self._expect(a, self.n)
        return Subspace(self.q, self.n1, [_split(self.q, self.n1, r)[0] for r in a.rows])

    def project2(self, a: Subspace) -> Subspace:
        self._expect(a, self.n)
        return Subspace(self.q, self.n2, [_split(self.q, self.n1, r)[1] for r in a.rows])

    def slice(self, a: Subspace) -> tuple[Subspace, Subspace]:
        """(a meet first block, projection of a onto the second block).

        The two parts satisfy dim(a) = dim(left) + dim(right).
        """
        self._expect(a, self.n)
        q, n2 = self.q, self.n2
        halves = (_split(q, n2, r) for r in _rref(q, self._swapped(a)))
        left = Subspace(q, self.n1, [first for second, first in halves if not _nonzero(q, second)])
        return left, self.project2(a)

    def swap(self, a: Subspace) -> Subspace:
        """Image under the block swap (u, v) -> (v, u)."""
        self._expect(a, self.n)
        return Subspace(self.q, self.n, self._swapped(a))

    def _swapped(self, a: Subspace) -> list:
        """The rows of a with the two coordinate blocks exchanged."""
        rows = []
        for r in a.rows:
            first, second = _split(self.q, self.n1, r)
            rows.append(_concat(self.q, self.n2, second, first))
        return rows

    def _expect(self, a: Subspace, n: int) -> None:
        if (a.q, a.n) != (self.q, n):
            raise InputError(f"expected a subspace of F_{self.q}^{n}, got F_{a.q}^{a.n}")


def map_by_matrix(a: Subspace, images: Sequence) -> Subspace:
    """Image of a under the linear map sending e_i to images[i].

    The map is given by its rows (packed vectors in the same ambient);
    it need not be invertible, but images of basis rows are re-reduced.
    """
    q, n = a.q, a.n
    if len(images) != n:
        raise InputError("matrix must provide an image for every coordinate")
    rows = []
    for r in a.rows:
        v = _zero(q, n)
        for c, image in zip(unpack_vector(q, n, r), images):
            if c:
                v = _axpy(q, c, image, v)
        rows.append(v)
    return Subspace(q, n, rows)


def invert_matrix(q: int, n: int, images: Sequence):
    """Rows of the inverse of the map e_i -> images[i].

    Raises InputError when the images are linearly dependent.
    """
    _check_base_prime(q)
    if len(images) != n:
        raise InputError("matrix must provide an image for every coordinate")
    units = _units(q, n)
    red = _rref(q, [_concat(q, n, r, units[i]) for i, r in enumerate(images)])
    halves = [_split(q, n, r) for r in red]
    if len(red) != n or any(left != units[i] for i, (left, _) in enumerate(halves)):
        raise InputError("matrix is not invertible")
    return [right for _, right in halves]
