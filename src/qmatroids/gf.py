"""Exact arithmetic over GF(q^m) for small primes q.

Field elements are plain integers: an element of GF(q^m) is the base-q
positional encoding of its coefficient vector, low degree first, so for
q = 2 the encoding coincides with the usual bit-packing of a binary
polynomial.  The prime field is GF(q^1), whose elements are the
residues 0..q-1.  Field handles are immutable and every operation is a
pure function, so handles and elements can be shared freely across
threads.

Only desk-scale fields are supported: q must be a prime at most 13 and
q^m may not exceed 2^20.  A field's order alone picks its arithmetic:
log tables up to 2^16, whatever the modulus, and polynomials above.
`ExtField` is the one check of a modulus, and trial division
(`smallest_factor`) the one irreducibility test.  Matrices are dense
tuples of tuples, and the only linear algebra on rows of field elements
is one online elimination: `echelon`, with `reduce_vector` its
reduction step, and their rank `span_rank`, the length of the echelon.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .errors import InputError

MAX_BASE_PRIME = 13
MAX_EXT_ORDER = 1 << 20

# Log/antilog tables are built eagerly for every field up to this order,
# on a primitive element; beyond it multiplication falls back to
# polynomial arithmetic, inversion to powering, and odd-q addition to
# coefficient vectors.
_LOG_TABLE_LIMIT = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_base_prime(q: int) -> None:
    if not is_prime(q) or q > MAX_BASE_PRIME:
        raise InputError(f"q must be a prime <= {MAX_BASE_PRIME}, got {q}")


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over GF(q): coefficient tuples, low degree first, trimmed.

def _trim(c: Sequence[int]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_deg(a: tuple[int, ...]) -> int:
    return len(a) - 1


def poly_mul(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _trim(out)


def poly_divmod(a: tuple[int, ...], b: tuple[int, ...], q: int):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], q - 2, q)
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = (c * inv_lead) % q
        quo[i - db] = f
        for j, y in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - f * y) % q
    return _trim(quo), _trim(rem)


def poly_mod(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    return poly_divmod(a, b, q)[1]


def poly_to_str(c: tuple[int, ...]) -> str:
    if not c:
        return "0"
    terms = []
    for i in range(len(c) - 1, -1, -1):
        k = c[i]
        if k == 0:
            continue
        if i == 0:
            terms.append(str(k))
        else:
            coef = "" if k == 1 else str(k) + "*"
            terms.append(f"{coef}x" if i == 1 else f"{coef}x^{i}")
    return "+".join(terms)


def smallest_factor(modulus: Sequence[int], q: int) -> tuple[int, ...]:
    """The first monic factor of least degree of a monic f over GF(q), by
    trial division.  A reducible f of degree m has one of degree at most
    m/2, so f is irreducible exactly when it is its own smallest factor."""
    return _smallest_factor(_trim(modulus), q)


# ExtField tests the modulus find_irreducible has just found; the cache
# answers that second test
@functools.lru_cache(maxsize=256)
def _smallest_factor(f: tuple[int, ...], q: int) -> tuple[int, ...]:
    m = poly_deg(f)
    for d in range(1, m // 2 + 1):
        for tail in range(q**d):
            cand = tuple(tail // q**i % q for i in range(d)) + (1,)
            if not poly_mod(f, cand, q):
                return cand
    return f


@functools.lru_cache(maxsize=64)
def find_irreducible(q: int, m: int) -> tuple[int, ...]:
    """The first monic irreducible of degree m over GF(q), in the order of
    the encoded tail f - x^m, decided by `smallest_factor`."""
    _check_base_prime(q)
    for tail in range(q**m):
        cand = tuple(tail // q**i % q for i in range(m)) + (1,)
        if smallest_factor(cand, q) == cand:
            return cand
    raise InputError(f"no irreducible polynomial of degree {m} over GF({q})")


# ---------------------------------------------------------------------------
# Field handles.

class ExtField:
    """The extension field GF(q^m) defined by a monic irreducible modulus.

    The modulus is a coefficient tuple, low degree first, of length m+1.
    Elements are ints in [0, q^m); ``coeffs``/``encode`` convert between
    an element and its coefficient vector.  When the residue class of x
    generates the multiplicative group, the modulus is recorded as
    primitive and elements format as "a^k"; `is_primitive` sets only
    that display.  The log tables of a field up to _LOG_TABLE_LIMIT are
    built on the class of x when it generates, and otherwise on the
    first generator in encoding order.
    """

    def __init__(self, q: int, m: int, modulus: Sequence[int]):
        _check_base_prime(q)
        if m < 1:
            raise InputError(f"extension degree must be >= 1, got {m}")
        order = q**m
        if order > MAX_EXT_ORDER:
            raise InputError(f"q^m = {order} exceeds the supported bound {MAX_EXT_ORDER}")
        for c in modulus:
            if type(c) is not int or not 0 <= c < q:
                raise InputError(f"modulus coefficient {c!r} is not an integer in 0..{q - 1}")
        mod = _trim(modulus)
        if poly_deg(mod) != m or mod[-1] != 1:
            raise InputError(f"modulus must be monic of degree {m}, got {poly_to_str(mod)}")
        if (factor := smallest_factor(mod, q)) != mod:
            raise InputError(
                f"modulus {poly_to_str(mod)} is reducible over GF({q}); "
                f"it is divisible by {poly_to_str(factor)}"
            )
        self.q = q
        self.m = m
        self.modulus = mod
        self.order = order
        self._mod_int = sum(c << i for i, c in enumerate(mod)) if q == 2 else None
        self.generator = self.encode((0, 1)) if m > 1 else (-mod[0]) % q
        self._exp = self._log = self._zech = None
        self.is_primitive = self._generates(self.generator)
        if order <= _LOG_TABLE_LIMIT:
            self._build_tables(self.generator if self.is_primitive
                               else next(g for g in range(1, order) if self._generates(g)))

    # -- identity & hashing on the defining data
    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and (self.q, self.m, self.modulus) == (other.q, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.q, self.m, self.modulus))

    def __repr__(self):
        return f"ExtField(q={self.q}, m={self.m}, modulus={poly_to_str(self.modulus)})"

    zero = 0
    one = 1

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def pack(self, v: Sequence[int]):
        """The coefficient vectors of the entries of v, one after another,
        as `subspace` packs a vector of F_q^(m len(v)): for q = 2 the bits
        of the encodings side by side, else one tuple of residues."""
        if self.q != 2:
            return sum(map(self.coeffs, v), ())
        packed = 0
        for x in reversed(v):
            packed = packed << self.m | x
        return packed

    def encode(self, coeffs: Iterable[int]) -> int:
        a = 0
        for i, c in enumerate(coeffs):
            a += (c % self.q) * self.q**i
        return a

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        if self._log is None or not a or not b:
            return self.encode(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))
        return self._add_logs(self._log[a], self._log[b])

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        if self._log is None or not a or not b:
            return self.encode(x - y for x, y in zip(self.coeffs(a), self.coeffs(b)))
        # -1 = g^((order - 1)/2) for odd q
        return self._add_logs(self._log[a], self._log[b] + (self.order - 1) // 2)

    def _add_logs(self, i: int, j: int) -> int:
        """g^i + g^j as a g^i (1 + g^(j-i)), by the table of log(1 + g^k)
        (None where 1 + g^k = 0), built on first use."""
        n, q, zech = self.order - 1, self.q, self._zech
        if zech is None:  # adding 1 changes only the constant digit
            zech = self._zech = [self._log[s] if s else None
                                 for s in (v - v % q + (v + 1) % q for v in self._exp)]
        k = zech[(j - i) % n]
        return 0 if k is None else self._exp[(i + k) % n]

    def smul(self, c: int, a: int) -> int:
        """Scalar multiple by c in the prime subfield."""
        c %= self.q
        if self.q == 2:
            return a if c else 0
        return self.encode(c * x for x in self.coeffs(a))

    def span_table(self, elements: Iterable[int], table: Sequence[int] = (0,)) -> list[int]:
        """The F_q-combinations of some elements and then of `elements`, in
        base-q counting order, given `table`, those of the first ones.

        Entry i has coefficient digit j of i on element j.  The block for
        an element x is the table so far plus c x for c = 1..q-1, one add
        per entry.
        """
        table = list(table)
        for x in elements:
            if self.q == 2:
                table += [e ^ x for e in table]
                continue
            size = len(table)
            for c in range(1, self.q):
                s = self.smul(c, x)
                table += [self.add(e, s) for e in table[:size]]
        return table

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        if self.q == 2:
            mod, m, acc = self._mod_int, self.m, 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if (a >> m) & 1:
                    a ^= mod
            return acc
        prod = poly_mod(poly_mul(self.coeffs(a), self.coeffs(b), self.q), self.modulus, self.q)
        return self.encode(prod + (0,) * (self.m - len(prod)))

    def quotients(self, nums: Iterable[int], dens: Iterable[int]) -> list[int]:
        """a / b for the pairs (a, b) of nums and dens, every b nonzero:
        one lookup each in the log tables, else three products each
        around one inverse for them all (Montgomery's trick)."""
        if self._exp is not None:
            exp, log = self._exp, self._log
            return [exp[log[a] - log[b]] if a else 0 for a, b in zip(nums, dens)]  # a negative index wraps
        mul, nums, dens = self.mul, list(nums), list(dens)
        prefix = [1]  # prefix[i]: the product of dens[:i]
        for b in dens:
            prefix.append(mul(prefix[-1], b))
        inv = self.inv(prefix[-1])  # 1 / the product of dens[:i + 1], for i from the end
        out = [0] * len(dens)
        for i in range(len(dens) - 1, -1, -1):
            out[i] = mul(nums[i], mul(inv, prefix[i]))
            inv = mul(inv, dens[i])
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def _generates(self, g: int) -> bool:
        """Whether g generates the multiplicative group.  0 never does; it
        is the class of x for m = 1 with modulus x."""
        n = self.order - 1
        return g != 0 and all(self.pow(g, n // p) != 1 for p in prime_factors(n))

    def _build_tables(self, g: int):
        """Walk g's powers into exp/log tables.  Multiplying by g is
        F_q-linear, so a step reads the images g x^j of the basis and
        reduces no polynomial: for q = 2 it XORs the images of the low
        byte and of the rest (m <= 16), each tabulated from the images
        of its bits; for odd q it sums the images in 16-bit slots, one
        per coefficient (each at most m (q-1)^2 < 2^10), mod q."""
        q, m, n = self.q, self.m, self.order - 1
        images = [self.mul(q**j, g) for j in range(m)]
        exp = [1] * n
        if q == 2:
            lo, hi = [0], [0]  # the images of every low byte and every rest
            for j, c in enumerate(images):
                t = lo if j < 8 else hi
                t += [x ^ c for x in t]
            for i in range(1, n):
                exp[i] = lo[exp[i - 1] & 255] ^ hi[exp[i - 1] >> 8]
        else:
            cols = [sum(d << 16 * k for k, d in enumerate(self.coeffs(c))) for c in images]
            slots, weights = range(0, 16 * m, 16), [q**k for k in range(m)]
            v = [1] + [0] * (m - 1)
            for i in range(1, n):
                p = sum([a * col for a, col in zip(v, cols) if a])
                v = [(p >> s & 0xFFFF) % q for s in slots]
                exp[i] = sum(map(int.__mul__, v, weights))
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def parse_element(self, s) -> int:
        """Accept an int (not a bool), a decimal string, or "0"/"1"/"a"/"a^k"."""
        if type(s) is int:
            v = s
        else:
            t = str(s).strip()
            if t == "a":
                return self.generator
            if t.startswith("a^"):
                try:
                    k = int(t[2:])
                except ValueError:
                    raise InputError(f"cannot parse exponent in {s!r}") from None
                return self.pow(self.generator, k)
            try:
                v = int(t)
            except ValueError:
                raise InputError(f"cannot parse {s!r} as a field element") from None
        if not 0 <= v < self.order:
            raise InputError(f"element {v} out of range for a field of order {self.order}")
        return v

    def format_element(self, a: int) -> str:
        if a == 0:
            return "0"
        if a == 1:
            return "1"
        if self.is_primitive and self._log is not None:
            return f"a^{self._log[a]}"
        return str(a)


_DEFAULT_MODULI = {
    # Pinned defaults for the two extension fields used throughout the
    # worked examples; everything else is searched on demand.
    (2, 4): (1, 1, 0, 0, 1),          # x^4 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),  # x^7 + x + 1
}


def ext_field_new(q: int, m: int, modulus: Sequence[int] | None = None) -> ExtField:
    """GF(q^m) on modulus, else on the pinned default or the first irreducible."""
    if modulus is None:
        modulus = _DEFAULT_MODULI.get((q, m)) or find_irreducible(q, m)
    return ExtField(q, m, modulus)


# ---------------------------------------------------------------------------
# Dense matrices over a field.

class Matrix:
    """An immutable dense matrix; each entry is a field element, an int in 0..order - 1."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise InputError("ragged matrix rows")
        for x in (x for r in rows for x in r):
            if type(x) is not int or not 0 <= x < field.order:
                raise InputError(f"entry {x!r} is not an element of a field of order {field.order}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows!r})"


def reduce_vector(F, v, rows) -> list[int]:
    """v with its entries at the pivots of an echelon's (pivot, row) pairs
    cleared, each row having 1 at its pivot; v is in their span exactly
    when the result is zero."""
    mul, sub = F.mul, F.sub
    for p, b in rows:
        c = v[p]
        if c:
            v = [sub(x, mul(c, y)) if y else x for x, y in zip(v, b)]
    return v


def echelon(F, vectors) -> list[tuple[int, list[int]]]:
    """An echelon of the span of row vectors over F, by online
    elimination: (pivot, row) pairs, each row scaled to 1 at its pivot.

    Each vector is reduced against the pairs kept so far and kept if
    anything is left; no Matrix is built.
    """
    mul, rows = F.mul, []
    for v in vectors:
        if len(rows) == len(v):  # the echelon spans the whole space
            break
        v = reduce_vector(F, v, rows)
        for p, x in enumerate(v):
            if x:
                inv = F.inv(x)
                rows.append((p, [mul(inv, y) for y in v]))
                break
    return rows


def span_rank(F, vectors) -> int:
    """Dimension of the span of row vectors over F: the length of their echelon."""
    return len(echelon(F, vectors))


def matrix_rank(M: Matrix) -> int:
    return span_rank(M.field, M.rows)
