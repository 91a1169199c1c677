"""Canonical subspaces of F_q^n and the lattice operations on them.

A subspace is identified by the reduced row echelon basis of its row
space, so equality and hashing are exact and independent of how the
space was presented.  For q = 2 a basis row is a machine integer with
bit i holding coordinate i (the pivot of a row is its lowest set bit);
for odd primes a row is a tuple of residues.  All objects here are
immutable values, safe to share between threads and worker processes;
the only mutation anywhere is an idempotent cache of the element mask.

Scale limits are deliberate: q is a prime at most 13, and any function
that enumerates vectors or subspaces refuses ambients with more than
2^10 vectors (larger jobs must stream through dimension strata on the
caller's side).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, InputError
from .gf import is_prime, MAX_BASE_PRIME

# Enumeration guards: streaming over vectors/atoms of an ambient space is
# allowed up to 2^10 vectors, and callers that materialize every subspace
# of a lattice should keep the total count within 2^16.
STREAM_AMBIENT_LIMIT = 1 << 10
MATERIALIZE_LIMIT = 1 << 16


def _check_q(q: int) -> None:
    if not is_prime(q) or q > MAX_BASE_PRIME:
        raise InputError(f"q must be a prime <= {MAX_BASE_PRIME}, got {q}")


# ---------------------------------------------------------------------------
# Row-space canonical forms.

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


class Subspace:
    """A subspace of F_q^n, stored as its canonical RREF basis."""

    __slots__ = ("q", "n", "rows", "_mask", "_hash")

    def __init__(self, q: int, n: int, vectors: Iterable = (), *, _rows=None):
        _check_q(q)
        if n < 0:
            raise InputError("ambient dimension must be nonnegative")
        if _rows is None:
            _rows = _rref_gf2(vectors) if q == 2 else _rref_q(vectors, q)
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
        if q == 2:
            rows = tuple(1 << i for i in range(n))
        else:
            rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls._make(q, n, rows)

    @classmethod
    def from_coeff_rows(cls, q: int, n: int, basis: Iterable[Sequence[int]]) -> "Subspace":
        return cls(q, n, [pack_vector(q, n, row) for row in basis])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return self.n - len(self.rows)

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
    def reduce_vector(self, v):
        return _reduce_gf2(v, self.rows) if self.q == 2 else _reduce_q(v, self.rows, self.q)

    def contains_vector(self, v) -> bool:
        r = self.reduce_vector(v)
        return r == 0 if self.q == 2 else not any(r)

    def contains(self, other: "Subspace") -> bool:
        _check_same_ambient(self, other)
        return all(self.contains_vector(v) for v in other.rows)

    def extend(self, v) -> "Subspace":
        """Span of self and one extra vector."""
        vred = self.reduce_vector(v)
        if (vred == 0) if self.q == 2 else not any(vred):
            return self
        if self.q == 2:
            b = vred & -vred
            out = []
            placed = False
            for r in self.rows:
                if r & b:
                    r ^= vred
                if not placed and (r & -r) > b:
                    out.append(vred)
                    placed = True
                out.append(r)
            if not placed:
                out.append(vred)
            return Subspace._make(self.q, self.n, tuple(out))
        p = _pivot_index(vred)
        inv = pow(vred[p], self.q - 2, self.q)
        vred = tuple((inv * x) % self.q for x in vred)
        out = []
        placed = False
        for r in self.rows:
            f = r[p]
            if f:
                r = tuple((x - f * y) % self.q for x, y in zip(r, vred))
            if not placed and _pivot_index(r) > p:
                out.append(vred)
                placed = True
            out.append(r)
        if not placed:
            out.append(vred)
        return Subspace._make(self.q, self.n, tuple(out))

    # -- element streams -------------------------------------------------
    def elements(self) -> list:
        """All q^dim vectors, in binary/positional counting order over the basis."""
        if self.q == 2:
            els = [0]
            for r in self.rows:
                els += [e ^ r for e in els]
            return els
        els = [tuple([0] * self.n)]
        for r in self.rows:
            new = list(els)
            for c in range(1, self.q):
                scaled = tuple((c * x) % self.q for x in r)
                new += [tuple((a + b) % self.q for a, b in zip(e, scaled)) for e in els]
            els = new
        return els

    def element_mask(self) -> int:
        """Bitmask over vector indices of the ambient space; cached."""
        m = self._mask
        if m is None:
            q, n = self.q, self.n
            if q**n > (1 << 13):
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
        try:
            q, n, basis = int(doc["q"]), int(doc["n"]), doc["basis"]
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed subspace document: {e}") from None
        given = [pack_vector(q, n, row) for row in basis]
        s = cls(q, n, given)
        if list(s.rows) != given:
            raise InputError(
                "subspace basis must be in reduced row echelon form with "
                f"increasing pivots; canonical form of the given span is {s.coeff_rows()}"
            )
        return s


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if (a.q, a.n) != (b.q, b.n):
        raise InputError(
            f"ambient mismatch: F_{a.q}^{a.n} vs F_{b.q}^{b.n}"
        )


# ---------------------------------------------------------------------------
# Lattice operations.

def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    if a.q == 2:
        return Subspace._make(a.q, a.n, _rref_gf2(a.rows + b.rows))
    return Subspace._make(a.q, a.n, _rref_q(a.rows + b.rows, a.q))


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce [[A A],[B 0]]; zero-left rows carry the intersection."""
    _check_same_ambient(a, b)
    q, n = a.q, a.n
    if q == 2:
        mask = (1 << n) - 1
        rows = [r | (r << n) for r in a.rows] + list(b.rows)
        red = _rref_gf2(rows)
        inter = [r >> n for r in red if not (r & mask)]
        return Subspace._make(q, n, _rref_gf2(inter))
    zero = (0,) * n
    rows = [tuple(r) + tuple(r) for r in a.rows] + [tuple(r) + zero for r in b.rows]
    red = _rref_q(rows, q)
    inter = [r[n:] for r in red if not any(r[:n])]
    return Subspace._make(q, n, _rref_q(inter, q))


def orthogonal_complement(a: Subspace) -> Subspace:
    """Null space under the standard dot product on F_q^n."""
    q, n = a.q, a.n
    if q == 2:
        pivots = [(r & -r).bit_length() - 1 for r in a.rows]
        pivset = set(pivots)
        out = []
        for f in range(n):
            if f in pivset:
                continue
            v = 1 << f
            for i, p in enumerate(pivots):
                if (a.rows[i] >> f) & 1:
                    v ^= 1 << p
            out.append(v)
        return Subspace._make(q, n, _rref_gf2(out))
    pivots = [_pivot_index(r) for r in a.rows]
    pivset = set(pivots)
    out = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = (-a.rows[i][f]) % q
        out.append(tuple(v))
    return Subspace._make(q, n, _rref_q(out, q))


def reverse(a: Subspace) -> Subspace:
    """Image under the coordinate reversal (x_1..x_n) -> (x_n..x_1)."""
    q, n = a.q, a.n
    if q == 2:
        rows = [int(format(r, f"0{n}b")[::-1], 2) if r else 0 for r in a.rows]
        return Subspace._make(q, n, _rref_gf2(rows)) if n else a
    rows = [tuple(reversed(r)) for r in a.rows]
    return Subspace._make(q, n, _rref_q(rows, q))


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
    """Canonical representatives of the 1-dim subspaces of a."""
    q = a.q
    if q**a.dim > STREAM_AMBIENT_LIMIT:
        raise BudgetError(f"atom stream over {q}^{a.dim} vectors exceeds the budget")
    if q == 2:
        for v in a.elements():
            if v:
                yield v
    else:
        for v in a.elements():
            if any(v):
                nz = next(x for x in v if x)
                if nz == 1:
                    yield v


def atoms(a: Subspace) -> Iterator[Subspace]:
    for v in atom_vectors(a):
        yield Subspace._make(a.q, a.n, (v,))


def codim1_subspaces(a: Subspace) -> Iterator[Subspace]:
    """The hyperplanes of a (inside a), one per functional on its coordinates."""
    q, d = a.q, a.dim
    if d == 0:
        return
    for c in atom_vectors(Subspace.full(q, d)):
        if q == 2:
            p = (c & -c).bit_length() - 1
            rows = [
                a.rows[i] ^ a.rows[p] if (c >> i) & 1 else a.rows[i]
                for i in range(d)
                if i != p
            ]
            yield Subspace._make(q, a.n, _rref_gf2(rows))
        else:
            p = _pivot_index(c)
            rows = [
                tuple((x - c[i] * y) % q for x, y in zip(a.rows[i], a.rows[p]))
                for i in range(d)
                if i != p
            ]
            yield Subspace._make(q, a.n, _rref_q(rows, q))


def covers(a: Subspace) -> Iterator[Subspace]:
    """Subspaces covering a in the lattice of F_q^n (one dimension up)."""
    full = Subspace.full(a.q, a.n)
    if a.dim == a.n:
        return
    qm = quotient_map(a, full)
    for w in atom_vectors(Subspace.full(a.q, qm.dim)):
        yield a.extend(qm.lift(w))


def rref_rows_for_pattern(q: int, n: int, pattern) -> Iterator[tuple]:
    """Canonical bases whose pivots sit exactly at the given columns,
    free entries swept in positional counting order."""
    k = len(pattern)
    if k == 0:
        yield ()
        return
    pivset = set(pattern)
    free = [
        (i, c)
        for i in range(k)
        for c in range(pattern[i] + 1, n)
        if c not in pivset
    ]
    if q == 2:
        base = [1 << p for p in pattern]
        if not free:
            yield tuple(base)
            return
        for combo in itertools.product((0, 1), repeat=len(free)):
            rows = list(base)
            for (i, c), val in zip(free, combo):
                if val:
                    rows[i] |= 1 << c
            yield tuple(rows)
    else:
        base = [[1 if j == p else 0 for j in range(n)] for p in pattern]
        if not free:
            yield tuple(tuple(r) for r in base)
            return
        for combo in itertools.product(range(q), repeat=len(free)):
            rows = [list(r) for r in base]
            for (i, c), val in zip(free, combo):
                rows[i][c] = val
            yield tuple(tuple(r) for r in rows)


def enumerate_rref_rows(q: int, n: int, k: int) -> Iterator[tuple]:
    """All canonical bases of k-dim subspaces of F_q^n, one tuple each.

    Deterministic order: pivot patterns lexicographically, then the free
    entries in positional counting order.
    """
    for pattern in itertools.combinations(range(n), k):
        yield from rref_rows_for_pattern(q, n, pattern)


def enumerate_subspaces(q: int, n: int, dims: Iterable[int] | None = None) -> Iterator[Subspace]:
    """Every subspace of F_q^n exactly once, grouped by ascending dimension."""
    _check_q(q)
    _check_stream_budget(q, n)
    if dims is None:
        dims = range(n + 1)
    for k in dims:
        if not 0 <= k <= n:
            raise InputError(f"dimension {k} out of range for ambient {n}")
        for rows in enumerate_rref_rows(q, n, k):
            yield Subspace._make(q, n, rows)


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
        raise AssertionError(f"q-binomial [{n} choose {k}]_{q} is not an integer")
    return num // den


def hyperplane_walk(q: int, n: int) -> Iterator[tuple[list[Subspace], list[tuple[int, ...]]]]:
    """The lattice of F_q^n one dimension stratum at a time.

    Yields (stratum, hyperplanes) for d = 0..n: the d-dimensional
    subspaces in enumeration order, and for each of them the ids
    (positions in the previous stratum) of its hyperplanes, in
    codim1_subspaces order.  Each subspace costs one codim1_subspaces
    pass, and the walk itself holds at most two adjacent strata.
    """
    index: dict[Subspace, int] = {}
    for d in range(n + 1):
        stratum = list(enumerate_subspaces(q, n, [d]))
        expect = gaussian_binomial(n, d, q)
        if len(stratum) != expect:
            raise AssertionError(
                f"walk met {len(stratum)} subspaces of dim {d}, expected {expect}"
            )
        yield stratum, [tuple(index[b] for b in codim1_subspaces(s)) for s in stratum]
        index = {s: i for i, s in enumerate(stratum)}


def lattice_size(q: int, n: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def require_materialize_budget(q: int, n: int, limit: int | None = None) -> None:
    limit = MATERIALIZE_LIMIT if limit is None else limit
    size = lattice_size(q, n)
    if size > limit:
        raise BudgetError(
            f"materializing all {size} subspaces of F_{q}^{n} exceeds the "
            f"budget of {limit}"
        )


# ---------------------------------------------------------------------------
# Quotients B/A with a deterministic complement.

class QuotientMap:
    """Coordinates on B/A for A <= B, via the lexicographically first
    complement drawn from B's canonical basis rows."""

    __slots__ = ("q", "n", "dim", "sub", "sup", "kept", "_elim")

    def __init__(self, sub: Subspace, sup: Subspace):
        _check_same_ambient(sub, sup)
        if not sup.contains(sub):
            raise InputError("quotient requires a nested pair of subspaces")
        q = sub.q
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", sub.n)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "sup", sup)
        kept = []
        probe = sub
        for r in sup.rows:
            ext = probe.extend(r)
            if ext.dim > probe.dim:
                kept.append(r)
                probe = ext
        object.__setattr__(self, "kept", tuple(kept))
        object.__setattr__(self, "dim", len(kept))
        object.__setattr__(self, "_elim", self._build_elim())

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    def _build_elim(self):
        q, k = self.q, len(self.kept)
        piv = {}
        if q == 2:
            items = [(r, 0) for r in self.sub.rows] + [
                (r, 1 << i) for i, r in enumerate(self.kept)
            ]
            for r, a in items:
                while r:
                    b = r & -r
                    got = piv.get(b)
                    if got is None:
                        piv[b] = (r, a)
                        break
                    r ^= got[0]
                    a ^= got[1]
            return piv
        items = [(list(r), [0] * k) for r in self.sub.rows] + [
            (list(r), [1 if j == i else 0 for j in range(k)])
            for i, r in enumerate(self.kept)
        ]
        for r, a in items:
            while True:
                p = next((i for i, x in enumerate(r) if x), None)
                if p is None:
                    break
                got = piv.get(p)
                if got is None:
                    inv = pow(r[p], q - 2, q)
                    piv[p] = (
                        [(inv * x) % q for x in r],
                        [(inv * x) % q for x in a],
                    )
                    break
                f = r[p]
                pr, pa = got
                r = [(x - f * y) % q for x, y in zip(r, pr)]
                a = [(x - f * y) % q for x, y in zip(a, pa)]
        return piv

    def to_quotient(self, v):
        """Coordinates of a vector of sup over the chosen complement."""
        q = self.q
        if q == 2:
            a = 0
            while v:
                b = v & -v
                got = self._elim.get(b)
                if got is None:
                    raise InputError("vector outside the covering subspace")
                v ^= got[0]
                a ^= got[1]
            return a
        a = [0] * self.dim
        v = list(v)
        while True:
            p = next((i for i, x in enumerate(v) if x), None)
            if p is None:
                break
            got = self._elim.get(p)
            if got is None:
                raise InputError("vector outside the covering subspace")
            f = v[p]
            pr, pa = got
            v = [(x - f * y) % q for x, y in zip(v, pr)]
            a = [(x + f * y) % q for x, y in zip(a, pa)]
        return tuple(a)

    def lift(self, w):
        """The chosen lift of a quotient vector back into sup."""
        q = self.q
        if q == 2:
            v = 0
            for i, r in enumerate(self.kept):
                if (w >> i) & 1:
                    v ^= r
            return v
        v = (0,) * self.n
        for i, r in enumerate(self.kept):
            c = w[i]
            if c:
                v = tuple((x + c * y) % q for x, y in zip(v, r))
        return v

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


def quotient_map(sub: Subspace, sup: Subspace) -> QuotientMap:
    return QuotientMap(sub, sup)


quotient_coords = quotient_map


# ---------------------------------------------------------------------------
# Block decompositions F_q^n = F_q^n1 + F_q^n2.

class DirectSumContext:
    """Embeddings, projections and the slice decomposition for a fixed
    block split of the coordinates."""

    __slots__ = ("q", "n1", "n2", "n")

    def __init__(self, q: int, n1: int, n2: int):
        _check_q(q)
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
        if self.q == 2:
            return Subspace._make(self.q, self.n, a.rows)
        pad = (0,) * self.n2
        return Subspace._make(self.q, self.n, tuple(tuple(r) + pad for r in a.rows))

    def embed2(self, a: Subspace) -> Subspace:
        self._expect(a, self.n2)
        if self.q == 2:
            return Subspace._make(self.q, self.n, tuple(r << self.n1 for r in a.rows))
        pad = (0,) * self.n1
        return Subspace._make(self.q, self.n, tuple(pad + tuple(r) for r in a.rows))

    def project1(self, a: Subspace) -> Subspace:
        self._expect(a, self.n)
        if self.q == 2:
            mask = (1 << self.n1) - 1
            return Subspace(self.q, self.n1, [r & mask for r in a.rows])
        return Subspace(self.q, self.n1, [r[: self.n1] for r in a.rows])

    def project2(self, a: Subspace) -> Subspace:
        self._expect(a, self.n)
        if self.q == 2:
            return Subspace(self.q, self.n2, [r >> self.n1 for r in a.rows])
        return Subspace(self.q, self.n2, [r[self.n1:] for r in a.rows])

    def slice(self, a: Subspace) -> tuple[Subspace, Subspace]:
        """(a meet first block, projection of a onto the second block).

        The two parts satisfy dim(a) = dim(left) + dim(right).
        """
        self._expect(a, self.n)
        q, n1, n2 = self.q, self.n1, self.n2
        if q == 2:
            mask1 = (1 << n1) - 1
            swapped = [(r >> n1) | ((r & mask1) << n2) for r in a.rows]
            red = _rref_gf2(swapped)
            mask2 = (1 << n2) - 1
            left_rows = [r >> n2 for r in red if not (r & mask2)]
            left = Subspace(q, n1, left_rows)
        else:
            swapped = [tuple(r[n1:]) + tuple(r[:n1]) for r in a.rows]
            red = _rref_q(swapped, q)
            left_rows = [r[n2:] for r in red if not any(r[:n2])]
            left = Subspace(q, n1, left_rows)
        return left, self.project2(a)

    def swap(self, a: Subspace) -> Subspace:
        """Image under the block swap (u, v) -> (v, u)."""
        self._expect(a, self.n)
        q, n1, n2 = self.q, self.n1, self.n2
        if q == 2:
            mask1 = (1 << n1) - 1
            rows = [(r >> n1) | ((r & mask1) << n2) for r in a.rows]
            return Subspace(q, self.n, rows)
        return Subspace(q, self.n, [tuple(r[n1:]) + tuple(r[:n1]) for r in a.rows])

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
    if q == 2:
        rows = []
        for r in a.rows:
            v = 0
            while r:
                b = r & -r
                v ^= images[b.bit_length() - 1]
                r ^= b
            rows.append(v)
        return Subspace(q, n, rows)
    rows = []
    for r in a.rows:
        v = (0,) * n
        for i, c in enumerate(r):
            if c:
                v = tuple((x + c * y) % q for x, y in zip(v, images[i]))
        rows.append(v)
    return Subspace(q, n, rows)


def invert_matrix(q: int, n: int, images: Sequence):
    """Rows of the inverse of the map e_i -> images[i].

    Raises InputError when the images are linearly dependent.
    """
    _check_q(q)
    if len(images) != n:
        raise InputError("matrix must provide an image for every coordinate")
    if q == 2:
        red = _rref_gf2(r | (1 << (n + i)) for i, r in enumerate(images))
        mask = (1 << n) - 1
        if len(red) != n or any(red[i] & mask != (1 << i) for i in range(n)):
            raise InputError("matrix is not invertible")
        return [r >> n for r in red]
    ind = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    red = _rref_q((tuple(r) + ind[i] for i, r in enumerate(images)), q)
    if len(red) != n or any(red[i][:n] != ind[i] for i in range(n)):
        raise InputError("matrix is not invertible")
    return [r[n:] for r in red]
