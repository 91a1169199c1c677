"""Free products and direct sums, checked against definitional routes.

The free product is computed three independent ways (certificate
stacking, the rank formula, and dynamic programming on independents);
these sweeps keep all of them in agreement so no route ever certifies
itself.
"""

import itertools
import random

import pytest

from cases import acceptance_11_factors, composite, random_gl, table_backed
from oracles import (
    free_product_independents,
    is_free_product_independent,
    minor_by_rank_table,
    weak_compare_by_sweep,
)

from qmatroids.constructions import (
    direct_sum,
    direct_sum_by_definition,
    free_product,
    free_product_by_formula,
    free_product_chain,
    free_product_rank,
    weak_compare_identity,
)
from qmatroids.errors import InputError
from qmatroids.qmatroid import (
    QMatroid,
    check_rank_axioms,
    full_rank_table,
    is_isomorphic,
    phi_dual,
    rank_from_independents,
    rank_tables_equal,
    transport,
)
from qmatroids.subspace import (
    SMALL_LATTICE_LIMIT,
    DirectSumContext,
    Subspace,
    enumerate_subspaces,
    lattice_size,
)

U = QMatroid.uniform


def span(q, n, *rows):
    return Subspace.from_coeff_rows(q, n, rows)


def diagonal_flat_matroid():
    return QMatroid.from_cyclic_flats(2, 4, [
        (span(2, 4), 0),
        (span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)), 1),
        (span(2, 4, (0, 0, 1, 0), (0, 0, 0, 1)), 1),
        (span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1)), 1),
        (Subspace.full(2, 4), 2),
    ])


PAIR_POOL = [U(2, 1, 0), U(2, 1, 1), U(2, 2, 1), U(2, 3, 2)]


def factor_pairs():
    """The small uniform pairs, seeded composite pairs up to F_2^7, F_3^4
    and F_5^2, and the acceptance-11 factors on F_2^5 and F_2^8."""
    rng = random.Random(16)
    pairs = list(itertools.product(PAIR_POOL[:3], repeat=2))
    for q, n1, n2 in ((2, 2, 3), (2, 3, 3), (2, 2, 4), (2, 3, 4), (2, 4, 3),
                      (3, 2, 2), (3, 1, 3), (5, 1, 1)):
        for _ in range(2):
            pairs.append((composite(rng, q, n1), composite(rng, q, n2)))
    pairs.append(acceptance_11_factors())
    return pairs


def test_free_product_routes_agree_on_small_pairs():
    for m1, m2 in itertools.product(PAIR_POOL[:3], repeat=2):
        stacked = free_product(m1, m2)
        formula = free_product_by_formula(m1, m2)
        assert rank_tables_equal(stacked, formula)
        indep = free_product_independents(m1, m2)
        table = rank_from_independents(stacked.q, stacked.n, indep)
        assert rank_tables_equal(stacked, QMatroid.from_rank_table(
            stacked.q, stacked.n, table))


def test_free_product_rank_matches_matroid_rank():
    m1, m2 = U(2, 2, 1), diagonal_flat_matroid().restriction(
        span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)))
    prod = free_product(m1, m2)
    for x in enumerate_subspaces(2, 4):
        assert prod.rank(x) == free_product_rank(m1, m2, x)


def test_free_product_independence_predicate():
    m1, m2 = U(2, 2, 1), U(2, 2, 1)
    prod = free_product(m1, m2)
    for x in enumerate_subspaces(2, 4):
        assert prod.is_independent(x) == is_free_product_independent(m1, m2, x)


def test_free_product_recovers_factors_as_minors():
    # (M1 * M2)|E1 = M1 and (M1 * M2)/E1 = M2, in the coordinates of the
    # blocks; the table oracle joins in wherever the lattice is small
    for m1, m2 in factor_pairs():
        prod = free_product(m1, m2)
        zero, seam = Subspace.zero(m1.q, prod.n), DirectSumContext(m1.q, m1.n, m2.n).embed1(m1.E)
        res, con = prod.restriction(seam), prod.contraction(seam)
        assert weak_compare_identity(res, m1).relation == "equal"
        assert weak_compare_identity(con, m2).relation == "equal"
        if lattice_size(m1.q, prod.n) <= SMALL_LATTICE_LIMIT:
            assert rank_tables_equal(res, m1) and rank_tables_equal(con, m2)
            assert res.certificates() == minor_by_rank_table(prod, zero, seam).certificates()
            assert con.certificates() == minor_by_rank_table(prod, seam, prod.E).certificates()


def test_free_product_seam_presence():
    def has_seam(m1, m2):
        prod = free_product(m1, m2)
        seam = DirectSumContext(2, m1.n, m2.n).embed1(Subspace.full(2, m1.n))
        return any(z == seam for z, _ in prod.certificates())

    assert has_seam(U(2, 2, 1), U(2, 2, 1))      # coloopless x loopless
    assert not has_seam(U(2, 2, 2), U(2, 2, 1))  # left factor has coloops
    assert not has_seam(U(2, 2, 1), U(2, 2, 0))  # right factor has loops
    assert not has_seam(U(2, 2, 2), U(2, 2, 0))


def test_free_product_total_rank_adds():
    for m1, m2 in itertools.product(PAIR_POOL, repeat=2):
        prod = free_product(m1, m2)
        assert prod.rank(Subspace.full(2, prod.n)) == (
            m1.rank(Subspace.full(2, m1.n)) + m2.rank(Subspace.full(2, m2.n)))


def test_free_product_validates_axioms_on_the_fly():
    for m1, m2 in itertools.product(PAIR_POOL[:3], repeat=2):
        prod = free_product(m1, m2, validate=True)
        assert check_rank_axioms(2, prod.n, full_rank_table(prod)).ok


def test_free_product_with_empty_factor_is_identity():
    empty = U(2, 0, 0)
    m = U(2, 2, 1)
    assert rank_tables_equal(free_product(empty, m), m)
    assert rank_tables_equal(free_product(m, empty), m)


def test_free_product_chain_matches_manual_fold():
    ms = [U(2, 1, 1), U(2, 2, 1), U(2, 1, 0)]
    chain = free_product_chain(ms)
    manual = free_product(free_product(ms[0], ms[1]), ms[2])
    assert rank_tables_equal(chain, manual)
    with pytest.raises(InputError):
        free_product_chain([])


def test_uniform_ends_absorb_into_uniform():
    # a free column then a loop-only factor squeeze to uniforms exactly
    assert rank_tables_equal(
        free_product_chain([U(2, 1, 1), U(2, 2, 1), U(2, 1, 0)]), U(2, 4, 2))
    assert rank_tables_equal(
        free_product_chain([U(2, 1, 1), U(2, 2, 0), U(2, 1, 0)]), U(2, 4, 1))


def test_associativity_is_exact():
    for triple in ((U(2, 1, 1), U(2, 2, 1), U(2, 1, 0)),
                   (U(2, 2, 1), U(2, 1, 0), U(2, 1, 1))):
        a, b, c = triple
        left = free_product(free_product(a, b), c)
        right = free_product(a, free_product(b, c))
        assert rank_tables_equal(left, right)
        assert sorted((z.dim, f) for z, f in left.certificates()) == \
            sorted((z.dim, f) for z, f in right.certificates())


def test_product_duality_under_phi_is_exact():
    pairs = [(U(2, 2, 1), U(2, 2, 1)), (U(2, 2, 1), U(2, 3, 2)),
             (U(2, 1, 0), U(2, 2, 1))]
    for m1, m2 in pairs:
        lhs = phi_dual(free_product(m1, m2))
        rhs = free_product(phi_dual(m2), phi_dual(m1))
        assert rank_tables_equal(lhs, rhs)


def test_product_duality_without_phi_is_only_isomorphic():
    m1, m2 = U(2, 2, 1), diagonal_flat_matroid().restriction(
        span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)))
    plain = free_product(m1, m2).dual()
    swapped = free_product(m2.dual(), m1.dual())
    assert is_isomorphic(plain, swapped).kind == "yes"


def test_direct_sum_matches_definition():
    for m1, m2 in itertools.product(PAIR_POOL[:3], repeat=2):
        assert rank_tables_equal(direct_sum(m1, m2),
                                 direct_sum_by_definition(m1, m2))


def test_direct_sum_certificates_are_pairwise_sums():
    m = direct_sum(U(2, 2, 1), U(2, 2, 1))
    got = {(z, f) for z, f in m.certificates()}
    ctx = DirectSumContext(2, 2, 2)
    zero2, full2 = Subspace.zero(2, 2), Subspace.full(2, 2)
    want = set()
    for (z1, f1), (z2, f2) in itertools.product(
            [(zero2, 0), (full2, 1)], repeat=2):
        s = Subspace(2, 4, ctx.embed1(z1).rows + ctx.embed2(z2).rows)
        want.add((s, f1 + f2))
    assert got == want


def test_direct_sum_commutes_up_to_block_swap():
    m1, m2 = U(2, 2, 1), U(2, 3, 2)
    ctx = DirectSumContext(2, 2, 3)
    left = direct_sum(m1, m2)
    right = direct_sum(m2, m1)
    for x in enumerate_subspaces(2, 5):
        assert left.rank(x) == right.rank(ctx.swap(x))


def test_free_product_dominates_direct_sum():
    for m1, m2 in factor_pairs():
        prod = free_product(m1, m2)
        summed = direct_sum(m1, m2)
        verdict = weak_compare_identity(prod, summed)
        assert verdict.relation in ("equal", "M2<=M1")
        if lattice_size(m1.q, prod.n) <= SMALL_LATTICE_LIMIT:
            assert weak_compare_by_sweep(prod, summed).relation == verdict.relation


def test_diagonal_flat_example_sits_strictly_below_direct_sum():
    MN = direct_sum(U(2, 2, 1), U(2, 2, 1))
    L = diagonal_flat_matroid()
    verdict = weak_compare_identity(MN, L)
    assert verdict.relation == "M2<=M1"
    diag = span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1))
    assert MN.rank(diag) == 2 and L.rank(diag) == 1


def test_free_product_is_pointwise_maximal_among_both():
    prod = free_product(U(2, 2, 1), U(2, 2, 1))
    MN = direct_sum(U(2, 2, 1), U(2, 2, 1))
    L = diagonal_flat_matroid()
    strict_sum = strict_l = 0
    for x in enumerate_subspaces(2, 4):
        assert prod.rank(x) >= MN.rank(x) >= L.rank(x)
        strict_sum += prod.rank(x) > MN.rank(x)
        strict_l += prod.rank(x) > L.rank(x)
    assert strict_sum and strict_l


def test_weak_compare_incomparable_pair():
    prod = free_product(U(2, 2, 1), U(2, 2, 1))
    swapped = QMatroid.from_cyclic_flats(2, 4, [
        (span(2, 4), 0),
        (span(2, 4, (0, 0, 1, 0), (0, 0, 0, 1)), 1),
        (Subspace.full(2, 4), 2),
    ])
    verdict = weak_compare_identity(prod, swapped)
    assert verdict.relation == "incomparable"
    assert set(verdict.witnesses) == {"r1>r2", "r1<r2"}
    assert not verdict


def weak_pairs(seed):
    """Ordered pairs on F_2^3 .. F_2^6, F_3^3 and F_5^2: composites, the
    free product and direct sum of one pair in common scrambled
    coordinates (both ways round), a composite against a change of its
    basis and against a uniform, and table-backed copies from "ranks"
    documents."""
    rng = random.Random(seed)
    for q, n, rounds in ((2, 3, 12), (2, 4, 12), (2, 5, 10), (2, 6, 4), (3, 3, 10), (5, 2, 12)):
        for i in range(rounds):
            a, b = composite(rng, q, n), composite(rng, q, n)
            n1 = rng.randint(1, n - 1)
            f1, f2 = composite(rng, q, n1, 1), composite(rng, q, n - n1, 1)
            g = random_gl(rng, q, n)
            prod = transport(free_product(f1, f2, validate=False), g)
            summed = transport(direct_sum(f1, f2), g)
            if i % 2:
                a, prod = table_backed(a), table_backed(prod)
            yield from ((a, b), (prod, summed), (summed, prod),
                        (a, transport(a, random_gl(rng, q, n))), (U(q, n, rng.randint(0, n)), a))
            if i % 4 == 1:
                yield b, table_backed(b)


def test_weak_compare_matches_the_sweep_oracle():
    seen = set()
    for m1, m2 in weak_pairs(8):
        verdict = weak_compare_identity(m1, m2)
        want = weak_compare_by_sweep(m1, m2)
        assert verdict.relation == want.relation
        assert set(verdict.witnesses) == set(want.witnesses)
        for key, w in verdict.witnesses.items():
            # a strict cyclic flat of m2 for r1 > r2, of m1 for r1 < r2
            s = Subspace.from_dict(w["space"])
            r1, r2 = m1.rank(s), m2.rank(s)
            assert (w["r1"], w["r2"]) == (r1, r2)
            assert r1 > r2 if key == "r1>r2" else r1 < r2
            flats = (m2 if key == "r1>r2" else m1).certificates()
            assert s in {z for z, _ in flats}
        seen.add(verdict.relation)
    assert seen == {"equal", "M2<=M1", "M1<=M2", "incomparable"}


def test_weak_compare_equal_and_error_cases():
    m = U(2, 2, 1)
    assert weak_compare_identity(m, U(2, 2, 1)).relation == "equal"
    with pytest.raises(InputError):
        weak_compare_identity(m, U(2, 3, 1))


def test_rank_from_independents_recovers_tables():
    for m in (U(2, 3, 2), U(2, 3, 0)):
        table = rank_from_independents(2, 3, m.independent_spaces())
        assert table == full_rank_table(m)


def test_figure_style_stacked_lattice_without_enumeration():
    # certificate-level product on a 13-dim ambient: coloopless left
    # factor and loopless right factor stack with a seam between them
    M = QMatroid.from_cyclic_flats(2, 5, [
        (span(2, 5, (1, 0, 1, 0, 1)), 0),
        (span(2, 5, (1, 0, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 0, 0)), 1),
        (span(2, 5, (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1)), 1),
        (span(2, 5, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)), 1),
        (Subspace.full(2, 5), 2),
    ])
    ident8 = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
    N = QMatroid.from_cyclic_flats(2, 8, [
        (span(2, 8), 0),
        (span(2, 8, *ident8[:2]), 1),
        (span(2, 8, *ident8[:4]), 2),
        (span(2, 8, *ident8[4:]), 3),
        (Subspace.full(2, 8), 4),
    ])
    assert M.has_loops() and not M.has_coloops()
    assert not N.has_loops() and not N.has_coloops()
    prod = free_product(M, N)
    lat = prod.cyclic_flats()
    nodes, edges = lat.shape_signature()
    assert nodes == ((1, 0), (3, 1), (3, 1), (3, 1), (5, 2),
                     (7, 3), (9, 4), (9, 5), (13, 6))
    assert sorted(edges) == sorted(
        (((1, 0), (3, 1)),) * 3 + (((3, 1), (5, 2)),) * 3
        + (((5, 2), (7, 3)), ((5, 2), (9, 5)), ((7, 3), (9, 4)),
           ((9, 4), (13, 6)), ((9, 5), (13, 6))))
    ctx = DirectSumContext(2, 5, 8)
    seam = ctx.embed1(Subspace.full(2, 5))
    assert lat.rank_of(seam) == 2
    for z, _ in M.certificates():
        if z.dim < 5:
            assert ctx.embed1(z) in lat.spaces()


def test_figure_style_lattice_without_seam():
    # coloop on the left and loop on the right: the two certificate
    # stacks join directly with no seam node between them
    M = QMatroid.from_cyclic_flats(2, 5, [
        (span(2, 5, (1, 0, 1, 0, 1)), 0),
        (span(2, 5, (1, 0, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 0, 0)), 1),
        (span(2, 5, (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1)), 1),
        (span(2, 5, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)), 1),
        (Subspace.full(2, 5), 2),
    ])
    L = QMatroid.from_cyclic_flats(2, 5, [
        (span(2, 5), 0),
        (span(2, 5, (1, 0, 0, 1, 1), (0, 1, 0, 1, 0)), 1),
        (span(2, 5, (1, 0, 1, 0, 0), (0, 0, 0, 1, 0)), 1),
        (span(2, 5, (0, 0, 1, 0, 1), (1, 1, 0, 1, 1)), 1),
        (span(2, 5, (1, 0, 0, 0, 1), (0, 1, 0, 0, 0),
              (0, 0, 1, 0, 1), (0, 0, 0, 1, 0)), 2),
    ])
    assert L.has_coloops() and M.has_loops()
    prod = free_product(L, M)
    lat = prod.cyclic_flats()
    nodes, edges = lat.shape_signature()
    assert nodes == ((0, 0), (2, 1), (2, 1), (2, 1), (4, 2),
                     (6, 3), (8, 4), (8, 4), (8, 4), (10, 5))
    assert len(edges) == 13
    ctx = DirectSumContext(2, 5, 5)
    assert ctx.embed1(Subspace.full(2, 5)) not in lat.spaces()
