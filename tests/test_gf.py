"""Finite field and linear algebra sweeps.

Arithmetic is checked against independent routes: integer arithmetic
mod q for prime fields GF(q^1), and explicit polynomial reduction and
coefficient vectors for extension fields, so the table-driven fast
paths never certify themselves.
"""

import random

import pytest

from oracles import is_irreducible, poly_add

from qmatroids.errors import InputError
from qmatroids.gf import (
    _LOG_TABLE_LIMIT,
    MAX_EXT_ORDER,
    ExtField,
    Matrix,
    ext_field_new,
    find_irreducible,
    is_prime,
    matrix_rank,
    poly_deg,
    poly_divmod,
    poly_mod,
    poly_mul,
    prime_factors,
    smallest_factor,
)


def test_prime_guards():
    assert is_prime(2) and is_prime(3) and is_prime(13)
    assert not is_prime(1) and not is_prime(9) and not is_prime(15)
    with pytest.raises(InputError):
        ext_field_new(4, 1)
    with pytest.raises(InputError):
        ext_field_new(17, 1)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(15) == [3, 5]
    assert prime_factors(1 << 17) == [2]


def test_base_field_matches_integer_arithmetic():
    for q in (2, 3, 5, 7, 13):
        F = ext_field_new(q, 1)
        assert F.order == q
        for a in range(q):
            for b in range(q):
                assert F.add(a, b) == (a + b) % q
                assert F.sub(a, b) == (a - b) % q
                assert F.mul(a, b) == (a * b) % q
            for e in range(5):
                assert F.pow(a, e) == pow(a, e, q)
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def test_poly_divmod_round_trip():
    rng = random.Random(7)
    for q in (2, 3, 5):
        for _ in range(200):
            a = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 9)))
            # divisors are kept trimmed; a zero leading coefficient is
            # the caller's error, so normalize before dividing
            b = poly_add(tuple(rng.randrange(q) for _ in range(rng.randrange(1, 6))), (), q)
            if poly_deg(b) < 0:
                continue
            quot, rem = poly_divmod(a, b, q)
            assert poly_deg(rem) < poly_deg(b)
            assert poly_add(poly_mul(quot, b, q), rem, q) == poly_add(a, (), q)


def _is_irreducible(f, q):
    return smallest_factor(f, q) == f


def test_irreducibility_known_cases():
    assert _is_irreducible((1, 1, 1), 2)        # x^2+x+1
    assert not _is_irreducible((1, 0, 1), 2)    # (x+1)^2
    assert smallest_factor((1, 0, 1), 2) == (1, 1)
    assert _is_irreducible((1, 0, 1), 3)        # x^2+1 has no root mod 3
    assert _is_irreducible((1, 1, 0, 0, 1), 2)
    assert _is_irreducible((1, 1, 1, 1, 1), 2)  # cyclotomic, order-5 root


def test_products_are_reducible():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(60):
            a = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 4))) + (1,)
            b = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 4))) + (1,)
            assert not _is_irreducible(poly_mul(a, b, q), q)


def test_find_irreducible_is_lexicographically_first():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(2, 2) == (1, 1, 1)
    # tails 0..2 give x^4, x^4+1 = (x+1)^4 and x^4+x = x(x+1)(x^2+x+1)
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)
    got = find_irreducible(3, 3)
    assert poly_deg(got) == 3 and got[-1] == 1 and is_irreducible(got, 3)


def _monic(q, d):
    """Every monic polynomial of degree d over GF(q), in encoded-tail order."""
    for tail in range(q**d):
        yield tuple(tail // q**i % q for i in range(d)) + (1,)


def test_trial_division_matches_rabin():
    # smallest_factor is the one irreducibility test in src; Rabin's test
    # is its reference route, on every monic polynomial of small degree
    # (4499 of them) and on the default modulus of every field
    polys = [(f, q) for q, top in ((2, 10), (3, 6), (5, 4), (7, 3), (13, 2))
             for d in range(1, top + 1) for f in _monic(q, d)]
    assert len(polys) == 4499
    for f, q in polys:
        assert _is_irreducible(f, q) == is_irreducible(f, q), (f, q)
    for q in (2, 3, 5, 7, 11, 13):
        m = 1
        while q**m <= MAX_EXT_ORDER:
            first = next(f for f in _monic(q, m) if is_irreducible(f, q))
            assert find_irreducible(q, m) == first, (q, m)
            m += 1


@pytest.mark.parametrize("modulus", [(1, 3, 0, 0, 1), (-1, 1, 0, 0, 1), (True, 1, 0, 0, 1),
                                     (1.0, 1, 0, 0, 1), ("1", 1, 0, 0, 1), (None, 1, 0, 0, 1)],
                         ids=["too-large", "negative", "bool", "float", "string", "null"])
def test_modulus_coefficients_are_checked(modulus):
    # the GF(2) arithmetic packs coefficients as given, so -1 + x + x^4
    # would multiply as x^4 + 1, a reducible modulus, and 3 would index
    # past the log tables
    with pytest.raises(InputError, match="is not an integer in 0..1"):
        ExtField(2, 4, modulus)
    with pytest.raises(InputError, match="is not an integer in 0..1"):
        ext_field_new(2, 4, modulus)


def test_default_moduli_are_pinned():
    assert ext_field_new(2, 4).modulus == (1, 1, 0, 0, 1)
    assert ext_field_new(2, 7).modulus == (1, 1, 0, 0, 0, 0, 0, 1)


def test_f16_structure():
    F = ext_field_new(2, 4)
    a = F.generator
    assert F.order == 16 and F.zero == 0 and F.one == 1
    assert F.pow(a, 4) == F.add(a, F.one)  # x^4 = x + 1 under this modulus
    assert F.pow(a, 15) == F.one
    assert F.is_primitive
    assert len({F.pow(a, i) for i in range(15)}) == 15


def test_ext_mul_matches_polynomial_oracle():
    for q, m in ((2, 4), (3, 2)):
        F = ext_field_new(q, m)
        for x in range(F.order):
            for y in range(F.order):
                assert F.mul(x, y) == _mul_by_polynomials(F, x, y)


def test_ext_inverse_and_coeff_round_trip():
    for q, m in ((2, 4), (3, 3)):
        F = ext_field_new(q, m)
        for x in range(F.order):
            assert F.encode(F.coeffs(x)) == x
            assert len(F.coeffs(x)) == m
            for c in range(q):
                assert F.smul(c, x) == F.mul(c, x)
        for x in range(1, F.order):
            assert F.mul(x, F.inv(x)) == F.one
            assert F.pow(x, F.order - 1) == F.one
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def _primitive_field(q, m):
    """GF(q^m) on the first primitive modulus, so it has log tables."""
    for tail in range(q**m):
        mod = tuple((tail // q**i) % q for i in range(m)) + (1,)
        if _is_irreducible(mod, q):
            F = ExtField(q, m, mod)
            if F.is_primitive:
                return F


def test_odd_ext_add_sub_by_logs_match_coefficients():
    def by_coeffs(F, x, y, sign):
        return F.encode(a + sign * b for a, b in zip(F.coeffs(x), F.coeffs(y)))

    for m in (2, 3, 4):
        F = _primitive_field(3, m)
        assert F._log is not None
        for x in range(F.order):
            for y in range(F.order):
                assert F.add(x, y) == by_coeffs(F, x, y, 1)
                assert F.sub(x, y) == by_coeffs(F, x, y, -1)
    rng = random.Random(36)
    for F in (_primitive_field(3, 6), ext_field_new(3, 6), _primitive_field(5, 3)):
        assert F._log is not None
        for _ in range(3000):
            x, y = rng.randrange(F.order), rng.randrange(F.order)
            assert F.add(x, y) == by_coeffs(F, x, y, 1)
            assert F.sub(x, y) == by_coeffs(F, x, y, -1)
            assert F.sub(x, x) == 0
    # GF(3^11) is above the table limit: the coefficient and polynomial routes
    F = ext_field_new(3, 11)
    assert F.order > _LOG_TABLE_LIMIT and F._log is None
    assert F.add(F.generator, F.generator) == F.encode((0, 2))
    for _ in range(300):
        x, y = rng.randrange(F.order), rng.randrange(1, F.order)
        assert F.add(x, y) == by_coeffs(F, x, y, 1)
        assert F.sub(x, y) == by_coeffs(F, x, y, -1)
        assert F.mul(x, y) == _mul_by_polynomials(F, x, y)
        assert _mul_by_polynomials(F, y, F.inv(y)) == 1


def _mul_by_polynomials(F, x, y):
    return F.encode(poly_mod(poly_mul(F.coeffs(x), F.coeffs(y), F.q), F.modulus, F.q))


# The default fields up to the table limit whose class of x does not
# generate: before their tables were built on another generator, these
# multiplied by polynomials and added by coefficient vectors.
_NON_PRIMITIVE_DEFAULTS = {
    (2, 1), (2, 8), (2, 9), (2, 12), (2, 14), (2, 16), (3, 1), (3, 2), (3, 7),
    (3, 8), (3, 10), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (7, 1), (7, 2),
    (7, 3), (7, 4), (7, 5), (11, 1), (11, 2), (13, 1), (13, 2), (13, 3), (13, 4),
}


def test_every_field_up_to_the_table_limit_has_tables():
    non_primitive = set()
    for q in (2, 3, 5, 7, 11, 13):
        m = 1
        while q**m <= _LOG_TABLE_LIMIT:
            F = ext_field_new(q, m)
            n = F.order - 1
            assert sorted(F._exp) == list(range(1, F.order))
            g = F._exp[1 % n]
            for i in range(0, n, max(1, n // 97)):
                assert F._log[F._exp[i]] == i
                assert F._exp[(i + 1) % n] == _mul_by_polynomials(F, F._exp[i], g)
            if F.is_primitive:
                assert g == F.generator
            else:
                non_primitive.add((q, m))
                # the first generator in encoding order
                assert not any(F._generates(h) for h in range(1, g))
            m += 1
        assert ext_field_new(q, m)._log is None  # above the limit
    assert non_primitive == _NON_PRIMITIVE_DEFAULTS


def test_table_walk_on_a_dense_generator():
    # Walking the last generator of GF(13^4) packs columns with large
    # coefficients, so its slots exceed 2^8 on the way.
    F = ext_field_new(13, 4)
    g = next(h for h in range(F.order - 1, 0, -1) if F._generates(h))
    F._build_tables(g)
    assert F._exp[1] == g and sorted(F._exp) == list(range(1, F.order))
    n = F.order - 1
    for i in range(0, n, 97):
        assert F._exp[(i + 1) % n] == _mul_by_polynomials(F, F._exp[i], g)


_NON_PRIMITIVE_FIELDS = {
    "GF(2^8)": lambda: ext_field_new(2, 8),
    "GF(3^2)": lambda: ext_field_new(3, 2),
    "GF(5^2)": lambda: ext_field_new(5, 2),
    "GF(2^4) on x^4+x^3+x^2+x+1": lambda: ExtField(2, 4, (1, 1, 1, 1, 1)),
    "GF(3^7)": lambda: ext_field_new(3, 7),
    "GF(13^3)": lambda: ext_field_new(13, 3),
}


@pytest.mark.parametrize("name", list(_NON_PRIMITIVE_FIELDS))
def test_non_primitive_fields_match_the_oracles(name):
    # tables on another generator than x: every operation against the
    # polynomial and coefficient routes, exhaustive up to order 256
    F = _NON_PRIMITIVE_FIELDS[name]()
    assert not F.is_primitive and F._log is not None
    q = F.q
    if F.order <= 256:
        pairs = [(x, y) for x in range(F.order) for y in range(F.order)]
    else:
        rng = random.Random(F.order)
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(3000)]
    for x, y in pairs:
        assert F.mul(x, y) == _mul_by_polynomials(F, x, y)
        assert F.add(x, y) == F.encode(poly_add(F.coeffs(x), F.coeffs(y), q))
        assert F.sub(x, y) == F.encode(a - b for a, b in zip(F.coeffs(x), F.coeffs(y)))
        if y:
            assert _mul_by_polynomials(F, y, F.inv(y)) == 1
    # a non-primitive modulus prints integer encodings, and they parse back
    for x in {x for pair in pairs for x in pair}:
        text = F.format_element(x)
        assert text == str(x) and F.parse_element(text) == x


def test_non_primitive_modulus_still_works():
    F = ExtField(2, 4, (1, 1, 1, 1, 1))
    assert not F.is_primitive and F._log is not None
    assert F.pow(F.generator, 5) == F.one
    for x in range(1, 16):
        assert F.mul(x, F.inv(x)) == F.one
    # "a^k" would mean a power of x, which does not reach 7: plain encodings
    assert F.format_element(7) == "7"
    assert F.parse_element("a^2") == 4


def test_degree_one_extension_wraps_the_prime_field():
    # GF(q^1) on any modulus x - c is the integers mod q; it prints
    # residues unless c is a primitive root, whose powers "a^k" parse back
    for q in (2, 3, 5):
        for c in range(q):
            F = ExtField(q, 1, ((-c) % q, 1))
            assert F.generator == c and F._log is not None
            for x in range(q):
                for y in range(q):
                    assert F.mul(x, y) == (x * y) % q
                    assert F.add(x, y) == (x + y) % q
                    assert F.sub(x, y) == (x - y) % q
                assert F.parse_element(F.format_element(x)) == x
                if not F.is_primitive:
                    assert F.format_element(x) == str(x)


def test_format_parse_round_trip():
    F = ext_field_new(2, 4)
    for x in range(16):
        assert F.parse_element(F.format_element(x)) == x
        assert F.parse_element(x) == x
        assert F.parse_element(str(x)) == x
    assert F.format_element(0) == "0" and F.format_element(1) == "1"
    assert F.parse_element("a") == F.generator
    assert F.parse_element("a^11") == F.pow(F.generator, 11)
    for bad in ("16", "-1", "b^2", "a^", 16):
        with pytest.raises(InputError):
            F.parse_element(bad)


def test_field_construction_guards():
    with pytest.raises(InputError):
        ExtField(2, 2, (1, 0, 1))  # reducible modulus
    with pytest.raises(InputError):
        ext_field_new(2, 21)  # order above the supported bound
    with pytest.raises(InputError):
        ExtField(2, 2, (1, 1))  # degree mismatch


def test_matrix_ops_and_guards():
    F = ext_field_new(2, 4)
    A = Matrix(F, [[1, 2], [3, 4]])
    assert A == Matrix(F, [[1, 2], [3, 4]])
    assert A != Matrix(F, [[1, 2], [3, 5]])
    assert hash(A) == hash(Matrix(F, [[1, 2], [3, 4]]))
    with pytest.raises(InputError):
        Matrix(F, [[1], [2, 3]])
    with pytest.raises(AttributeError):
        A.rows = ()


def _span_size(F, rows):
    """Number of vectors in the span of rows, by listing every combination."""
    span = {(0,) * len(rows[0])}
    for r in rows:
        span = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, r))
                for v in span for c in range(F.order)}
    return len(span)


def test_matrix_rank_counts_the_span():
    # the span of rank-r rows holds exactly order^r vectors
    rng = random.Random(5)
    fields = (ext_field_new(2, 1), ext_field_new(3, 1), ext_field_new(2, 4),
              ext_field_new(3, 2))
    for F in fields:
        ranks = set()
        for trial in range(24):
            rows = [[rng.randrange(F.order) for _ in range(4)] for _ in range(3)]
            if trial % 3 == 1:
                # third row a combination of the first two
                a, b = rng.randrange(F.order), rng.randrange(F.order)
                rows[2] = [F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(rows[0], rows[1])]
            elif trial % 3 == 2:
                # all rows multiples of the first
                for i in (1, 2):
                    c = rng.randrange(F.order)
                    rows[i] = [F.mul(c, x) for x in rows[0]]
            M = Matrix(F, rows)
            rank = matrix_rank(M)
            assert _span_size(F, M.rows) == F.order ** rank
            ranks.add(rank)
        assert ranks >= {1, 2, 3}


def test_identity_has_full_rank():
    F = ext_field_new(2, 4)
    for n in range(1, 5):
        assert matrix_rank(Matrix(F, [[int(i == j) for j in range(n)] for i in range(n)])) == n
