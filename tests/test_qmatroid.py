"""Core q-matroid behavior: axioms, closure, duality, minors, isomorphism.

Derived values are checked against a second, independent route wherever
one exists (definitional dual vs certificate-transform dual, pairwise vs
walk axiom checkers, certificate-backed vs table-backed ranks).
"""

import functools
import itertools
import random

import pytest

from cases import composite, random_gl, random_interval, random_subspace, table_backed
from oracles import (
    check_cyclic_flat_axioms_by_search,
    check_independence_axioms_by_definition,
    check_rank_axioms_by_definition,
    closure,
    coloops_by_sweep,
    cyclic_core,
    hasse_edges_by_triples,
    is_independence_violation,
    loops_by_sweep,
    minor_by_rank_table,
    rank_by_min_formula,
)
from qmatroids import qmatroid
from qmatroids.constructions import direct_sum, free_product, free_product_rank
from qmatroids.errors import BudgetError, InputError
from qmatroids.qmatroid import (
    SUMS_VECTORS_PER_FLAT,
    QMatroid,
    check_cyclic_flat_axioms,
    check_independence_axioms,
    check_rank_axioms,
    cyclic_flats_by_scan,
    dual_by_definition,
    enumerate_qmatroids,
    full_rank_table,
    is_isomorphic,
    phi_dual,
    rank_tables_equal,
    transport,
)
from qmatroids.subspace import (
    MASK_AMBIENT_LIMIT,
    Subspace,
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
    subspaces_of,
    sum_subspaces,
)

U = QMatroid.uniform


def span(q, n, *rows):
    return Subspace.from_coeff_rows(q, n, rows)


def one_loop(q=2):
    """Rank-1 matroid on F_q^2 whose single loop line is the diagonal."""
    table = {}
    loop = span(q, 2, (1,) * 2)
    for s in enumerate_subspaces(q, 2):
        table[s] = 0 if s.dim == 0 or s == loop else 1
    return QMatroid.from_rank_table(q, 2, table, validate=True)


def diagonal_flat_matroid():
    """Four-line example: both coordinate planes and the diagonal plane
    are rank-1 cyclic flats, everything else is as free as possible."""
    return QMatroid.from_cyclic_flats(2, 4, [
        (span(2, 4), 0),
        (span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)), 1),
        (span(2, 4, (0, 0, 1, 0), (0, 0, 0, 1)), 1),
        (span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1)), 1),
        (Subspace.full(2, 4), 2),
    ])


def small_corpus():
    return [
        U(2, 2, 1), U(2, 3, 2), U(2, 3, 0), U(2, 3, 3),
        one_loop(), diagonal_flat_matroid(), U(3, 2, 1),
    ]


def test_uniform_rank_is_clamped_dimension():
    for q, n in ((2, 0), (2, 4), (3, 3)):
        for k in range(n + 1):
            m = U(q, n, k)
            for s in enumerate_subspaces(q, n):
                assert m.rank(s) == min(s.dim, k)
            assert m.uniform_parameters() == k
            assert m.is_uniform()


def test_uniform_parameters_none_for_non_uniform():
    assert one_loop().uniform_parameters() is None
    assert diagonal_flat_matroid().uniform_parameters() is None


def test_uniform_parameters_match_the_brute_force():
    # uniform with k = r(E) exactly when r(A) = min(dim A, k) on every A;
    # read off the cyclic flats of either backing
    uniforms = [U(q, n, k) for q, top in ((2, 4), (3, 3), (5, 2)) for n in range(top + 1)
                for k in range(n + 1)]
    cases = uniforms + [table_backed(m) for m in uniforms] + list(lattice_cases())
    found = set()
    for m in cases:
        k = m.rank(m.E)
        uniform = all(m.rank(a) == min(a.dim, k) for a in enumerate_subspaces(m.q, m.n))
        assert m.uniform_parameters() == (k if uniform else None), m
        found.add((m._table is None, uniform))
    assert found == {(True, True), (True, False), (False, True), (False, False)}


def test_rank_helpers_are_consistent():
    for m in small_corpus():
        for s in enumerate_subspaces(m.q, m.n):
            assert m.is_independent(s) == (m.rank(s) == s.dim)


def test_rank_table_validation_flags_submodularity():
    table = dict(full_rank_table(U(2, 4, 2)))
    table[span(2, 4, (0, 1, 0, 0))] = 0  # a single deflated line
    verdict = check_rank_axioms(2, 4, table)
    assert not verdict.ok
    assert "(R3)" in verdict.failed_axioms()
    with pytest.raises(InputError):
        QMatroid.from_rank_table(2, 4, table, validate=True)


def test_rank_table_validation_flags_range_and_monotonicity():
    table = dict(full_rank_table(U(2, 2, 1)))
    table[Subspace.zero(2, 2)] = 1
    assert "(R1)" in check_rank_axioms(2, 2, table).failed_axioms()
    table = dict(full_rank_table(U(2, 2, 1)))
    table[Subspace.full(2, 2)] = 0  # below the rank of its lines
    assert "(R2)" in check_rank_axioms(2, 2, table).failed_axioms()


def _is_real_violation(table, failure) -> bool:
    w = {k: Subspace.from_dict(v) for k, v in failure["witness"].items()}
    if failure["axiom"] == "(R2)":
        return w["sup"].contains(w["sub"]) and table[w["sub"]] > table[w["sup"]]
    a, b = w["a"], w["b"]
    return table[a] + table[b] < (
        table[sum_subspaces(a, b)] + table[intersect_subspaces(a, b)])


def _covers_hold(table) -> bool:
    """(R1) and every cover step r(B) <= r(S) <= r(B) + 1 hold, so only a
    diamond can break the table."""
    return all(0 <= r <= s.dim for s, r in table.items()) and all(
        table[b] <= r <= table[b] + 1 for s, r in table.items() for b in codim1_subspaces(s))


def test_full_and_local_rank_checkers_agree():
    rng = random.Random(41)
    diamond_only = 0
    for m, trials in ((U(2, 3, 2), 80), (U(3, 3, 2), 40), (U(3, 3, 1), 40),
                      (U(2, 4, 2), 40), (diagonal_flat_matroid(), 40)):
        base = full_rank_table(m)
        spaces = list(base)
        for trial in range(trials):
            table = dict(base)
            for _ in range(rng.randrange(1, 3)):
                s = rng.choice(spaces)
                bump = rng.choice((-1, 1))
                table[s] = max(0, min(s.dim, table[s] + bump))
            full = check_rank_axioms_by_definition(m.q, m.n, table)
            local = check_rank_axioms(m.q, m.n, table)
            assert full.ok == local.ok
            # the walk stops at the first failing subspace, so it may
            # name fewer axioms than the pairwise sweep, never others
            assert local.failed_axioms() <= full.failed_axioms()
            for failure in local.failures:
                assert _is_real_violation(table, failure), failure
            scanned = QMatroid(m.q, m.n, table=table)
            if local.ok:
                flats = cyclic_flats_by_scan(scanned)
                rebuilt = QMatroid.from_cyclic_flats(m.q, m.n, flats)
                assert rank_tables_equal(rebuilt, scanned)
            else:
                with pytest.raises(InputError):
                    cyclic_flats_by_scan(scanned)
                diamond_only += _covers_hold(table)
    # the walk tests diamonds only where one can fail; some trials must
    # fail there alone, or that pruning goes unchecked
    assert diamond_only > 0


def test_independence_axioms_positive():
    for m in (U(2, 4, 2), one_loop(), diagonal_flat_matroid()):
        verdict = check_independence_axioms(m.q, m.n, m.independent_spaces())
        assert verdict.ok, verdict.message()


def test_independence_axioms_negative_witnesses():
    full = {s for s, r in full_rank_table(U(2, 4, 2)).items() if r == s.dim}
    line = span(2, 4, (0, 1, 0, 0))
    v = check_independence_axioms(2, 4, full - {line})
    assert not v.ok and "(I2)" in v.failed_axioms()
    v = check_independence_axioms(
        2, 4, {s for s in full if not (s.dim == 2 and s.contains(line))})
    assert not v.ok and "(I3)" in v.failed_axioms()
    assert not check_independence_axioms(2, 4, set()).ok  # (I1)


def test_independence_axiom_i4_is_not_implied_by_the_rest():
    # all lines independent, planes independent iff they contain <e1>:
    # downward closed, one-dim extensions always exist, but two maximal
    # independents of a plane without <e1> cannot both be grown, which
    # only (I4'') notices
    fam = {s for s in enumerate_subspaces(2, 3) if s.dim <= 1}
    e1 = span(2, 3, (1, 0, 0))
    fam |= {s for s in enumerate_subspaces(2, 3) if s.dim == 2 and s.contains(e1)}
    v = check_independence_axioms(2, 3, fam)
    assert not v.ok
    assert v.failed_axioms() == {"(I4'')"}


def _downward_closed(q, n, fam):
    """The members of fam all of whose hyperplanes are kept, bottom up."""
    kept = set()
    for s in sorted(enumerate_subspaces(q, n), key=Subspace.sort_key):
        if s in fam and all(b in kept for b in codim1_subspaces(s)):
            kept.add(s)
    return kept


def test_independence_check_matches_the_pairwise_oracle():
    # perturbed independence families; the downward-closed ones pass
    # (I1) and (I2) and are decided by the rank walk alone
    rng = random.Random(12)
    bases = [U(q, n, k) for q, n in ((2, 3), (2, 4), (3, 3)) for k in range(n + 1)]
    bases += [free_product(U(2, 1, 1), U(2, 2, 1)), free_product(U(2, 2, 1), U(2, 2, 1)),
              free_product(U(2, 1, 0), U(2, 3, 2)), free_product(U(2, 3, 2), U(2, 1, 1)),
              diagonal_flat_matroid()]
    families = [(m, set(m.independent_spaces()), list(enumerate_subspaces(m.q, m.n)))
                for m in bases]
    named = []
    for trial in range(420):
        m, base, spaces = families[trial % len(families)]
        fam = base ^ set(rng.sample(spaces, rng.randrange(1, 4)))  # membership flips
        if rng.random() < 0.6:
            fam = _downward_closed(m.q, m.n, fam)
        walk = check_independence_axioms(m.q, m.n, fam)
        pairwise = check_independence_axioms_by_definition(m.q, m.n, fam)
        assert walk.ok == pairwise.ok
        for failure in walk.failures + pairwise.failures:
            assert is_independence_violation(fam, failure), failure
        named += walk.failed_axioms()
    # every translation of a walk failure must be exercised
    assert set(named) == {"(I1)", "(I2)", "(I3)", "(I4'')"}


def test_closure_is_a_closure_operator():
    for m in (U(2, 4, 2), diagonal_flat_matroid(), one_loop()):
        subs = list(enumerate_subspaces(m.q, m.n))
        for a in subs:
            c = closure(m, a)
            assert c.contains(a)
            assert m.rank(c) == m.rank(a)
            assert closure(m, c) == c
            assert m.is_flat(c)
        for a, b in itertools.product(subs[:20], repeat=2):
            if b.contains(a):
                assert closure(m, b).contains(closure(m, a))
    # is_flat reads the flats that minimize the rank formula; on random
    # subspaces and their closures it agrees with the atom-by-atom closure
    rng = random.Random(20)
    for m in rng.sample(lattice_cases(), 160):
        for _ in range(8):
            a = random_subspace(rng, m.q, m.n, rng.randint(0, m.n))
            c = closure(m, a)
            assert m.is_flat(a) == (c == a) and m.is_flat(c)


def _is_cyclic_by_hyperplanes(m, a):
    return all(m.rank(h) == m.rank(a) for h in codim1_subspaces(a))


def test_is_cyclic_matches_hyperplane_definition():
    for m in (U(2, 4, 2), diagonal_flat_matroid(), one_loop()):
        for a in enumerate_subspaces(m.q, m.n):
            if a.dim == 0:
                continue
            assert m.is_cyclic(a) == _is_cyclic_by_hyperplanes(m, a)
    # on random subspaces and their cyclic cores, table backings included
    rng = random.Random(21)
    for m in rng.sample(lattice_cases(), 160):
        for _ in range(8):
            a = random_subspace(rng, m.q, m.n, rng.randint(0, m.n))
            for b in (a, cyclic_core(m, a)):
                assert m.is_cyclic(b) == _is_cyclic_by_hyperplanes(m, b)


def test_cyclic_core_is_the_largest_cyclic_subspace():
    for m in (diagonal_flat_matroid(), one_loop()):
        for a in enumerate_subspaces(m.q, m.n):
            core = cyclic_core(m, a)
            assert a.contains(core)
            assert core.dim == 0 or m.is_cyclic(core)
            for b in subspaces_of(a):
                if b.dim and m.is_cyclic(b):
                    assert core.contains(b)


def test_cyclic_flats_scan_matches_lattice():
    for m in (U(2, 4, 2), diagonal_flat_matroid(), one_loop(), U(2, 3, 0)):
        lat = {(s, r) for s, r in m.cyclic_flats().pairs}
        scan = set(cyclic_flats_by_scan(m))
        assert lat == scan


def test_certificate_and_table_backings_agree():
    for m in small_corpus():
        rebuilt = QMatroid.from_cyclic_flats(
            m.q, m.n, m.cyclic_flats().pairs, validate=False)
        assert rank_tables_equal(m, rebuilt)


def certificate_corpus():
    """Uniforms on F_q^n (n <= 3 for q = 2, n <= 2 for q = 3 and 5), their
    free products and direct sums on at most 4, 3 and 3 coordinates, both
    of U(1,2) with itself over F_3, the free products of three factors
    from U(0,1), U(1,1) and U(1,2) over F_2 on at most 5 coordinates, and
    the duals of all of these."""
    line = U(3, 2, 1)
    out = [diagonal_flat_matroid(), QMatroid.from_cyclic_flats(2, 2, one_loop().certificates()),
           free_product(line, line, validate=False), direct_sum(line, line)]
    for q, top, total in ((2, 3, 4), (3, 2, 3), (5, 2, 3)):
        pool = [U(q, n, k) for n in range(1, top + 1) for k in range(n + 1)]
        out += pool
        for m1, m2 in itertools.product(pool, repeat=2):
            if m1.n + m2.n <= total:
                out += [free_product(m1, m2, validate=False), direct_sum(m1, m2)]
    for ms in itertools.product((U(2, 1, 0), U(2, 1, 1), U(2, 2, 1)), repeat=3):
        if sum(m.n for m in ms) <= 5:
            out.append(free_product(free_product(*ms[:2], validate=False), ms[2], validate=False))
    return out + [m.dual() for m in out]


def test_certificate_rank_matches_the_min_formula():
    corpus = certificate_corpus()
    assert len(corpus) >= 200
    assert {m.q for m in corpus} == {2, 3, 5}
    assert max(len(m.certificates()) for m in corpus) >= 4
    for m in corpus:
        assert m._table is None
        for s in enumerate_subspaces(m.q, m.n):
            assert m.rank(s) == rank_by_min_formula(m, s), (m, s)


def test_certificate_rank_above_the_mask_bound(monkeypatch):
    # F_2^13 is the largest ambient on element masks, F_2^14 the smallest
    # on one sum_subspaces per flat for every query.  On masks, a query
    # without a mask takes the sums when it has more than
    # SUMS_VECTORS_PER_FLAT vectors per flat.
    rng = random.Random(14)
    sums = []
    monkeypatch.setattr(qmatroid, "sum_subspaces", lambda a, b: sums.append(a) or sum_subspaces(a, b))
    m1 = free_product(U(2, 3, 1), U(2, 3, 2), validate=False).dual()
    for n2 in (7, 8):
        m2 = direct_sum(U(2, n2 // 2, 1), U(2, n2 - n2 // 2, 2))
        m = free_product(m1, m2, validate=False)
        k = len(m.certificates())
        assert k >= 4
        dims, summed = set(), set()
        for dim in range(m.n + 1):
            for _ in range(4):
                s = Subspace(2, m.n, [rng.randrange(1, 1 << m.n) for _ in range(dim)])
                del sums[:]
                assert m.rank(s) == free_product_rank(m1, m2, s)
                dims.add(s.dim)
                if sums:
                    summed.add(s.dim)
        if 2**m.n > MASK_AMBIENT_LIMIT:
            assert summed == dims
        else:
            assert summed == {d for d in dims if 2**d > SUMS_VECTORS_PER_FLAT * k}
            assert 0 < min(summed) < m.n


def test_certificate_rank_routes_by_query_size(monkeypatch):
    # the acceptance-11 product: 9 flats on F_2^13
    M = QMatroid.from_cyclic_flats(2, 5, [
        (span(2, 5, (1, 0, 1, 0, 1)), 0),
        (span(2, 5, (1, 0, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 0, 0)), 1),
        (span(2, 5, (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1)), 1),
        (span(2, 5, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)), 1),
        (Subspace.full(2, 5), 2),
    ])
    N = QMatroid.from_cyclic_flats(2, 8, [
        (Subspace.zero(2, 8), 0),
        (Subspace(2, 8, [1, 2]), 1),
        (Subspace(2, 8, [1, 2, 4, 8]), 2),
        (Subspace(2, 8, [16, 32, 64, 128]), 3),
        (Subspace.full(2, 8), 4),
    ])
    m = free_product(M, N)
    assert (m.n, len(m.certificates())) == (13, 9)
    sums = []
    monkeypatch.setattr(qmatroid, "sum_subspaces", lambda a, b: sums.append(a) or sum_subspaces(a, b))
    rng = random.Random(11)
    for dim, route in ((3, "masks"), (9, "sums"), (12, "sums"), (13, "sums")):
        for _ in range(10):
            s = Subspace.zero(2, 13)
            while s.dim < dim:
                s = s.extend(rng.randrange(1, 1 << 13))
            del sums[:]
            assert m.rank(s) == rank_by_min_formula(m, s)
            assert ("sums" if sums else "masks") == route
            # once a query has its mask, it stays on masks
            s.element_mask()
            del sums[:]
            assert m.rank(s) == rank_by_min_formula(m, s) and not sums


def test_certificate_rank_calls_no_sum_and_keeps_no_memo(monkeypatch):
    m = free_product(diagonal_flat_matroid(), U(2, 2, 1), validate=False)
    calls = []
    monkeypatch.setattr(qmatroid, "sum_subspaces", lambda a, b: calls.append(a))
    ranks = [m.rank(s) for s in enumerate_subspaces(2, 6)]
    assert calls == [] and len(ranks) == 2825
    assert "_memo" not in QMatroid.__slots__ and not hasattr(m, "_memo")


def test_table_backing_scans_once():
    m = QMatroid(2, 4, table=full_rank_table(diagonal_flat_matroid()))
    first = m.certificates()
    assert m.cyclic_flats().pairs == first
    assert m.certificates() is first


def test_validated_ranks_document_walks_once(monkeypatch):
    # F_2^6 has 2825 subspaces; the validation walk also finds the flats
    m = QMatroid.from_cyclic_flats(2, 6, [
        (span(2, 6), 0), (span(2, 6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)), 1),
        (Subspace.full(2, 6), 3)])
    doc = {"q": 2, "n": 6, "ranks": [
        {"basis": s.coeff_rows(), "r": r} for s, r in full_rank_table(m).items()]}
    walks = []

    def counting_walk(q, n):
        walks.append((q, n))
        return hyperplane_walk(q, n)

    monkeypatch.setattr(qmatroid, "hyperplane_walk", counting_walk)
    assert QMatroid.from_dict(doc, validate=True).certificates() == m.certificates()
    assert walks == [(2, 6)]


def test_from_cyclic_flats_validates():
    # the diagonal plane alone is not join-closed with the coordinate planes
    with pytest.raises(InputError):
        QMatroid.from_cyclic_flats(2, 4, [
            (span(2, 4), 0),
            (span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)), 1),
            (span(2, 4, (0, 0, 1, 0), (0, 0, 0, 1)), 1),
        ])
    v = check_cyclic_flat_axioms(2, 2, [(Subspace.zero(2, 2), 0),
                                        (Subspace.full(2, 2), 2)])
    assert not v.ok  # (Z2) needs rank increase strictly below dim increase
    assert "(Z2)" in v.failed_axioms()


@functools.lru_cache(maxsize=None)
def compared_images(q, n, image):
    """(A, image(A)) for every subspace A of F_q^n when there are at most
    400, else for 60 seeded random ones; built once per ambient, since the
    images cost more than the rank queries that read them."""
    if lattice_size(q, n) <= 400:
        spaces = enumerate_subspaces(q, n)
    else:
        rng = random.Random(100 * q + n)
        spaces = [random_subspace(rng, q, n, rng.randint(0, n)) for _ in range(60)]
    return tuple((a, image(a)) for a in spaces)


def test_dual_matches_definitional_route():
    # either backing gives a certificate-backed dual, compared with the
    # definition on whole small lattices and sampled large ones
    for m in small_corpus() + lattice_cases():
        d = m.dual()
        assert d._table is None
        if lattice_size(m.q, m.n) <= 400:
            assert rank_tables_equal(d, dual_by_definition(m))
        else:
            top = m.rank(m.E)
            for a, perp in compared_images(m.q, m.n, orthogonal_complement):
                assert d.rank(a) == a.dim - top + m.rank(perp)
        assert d.dual().certificates() == m.certificates()


def test_dual_rank_formula_pointwise():
    # r*(A) = dim A - r(E) + r(anti(A)), with perp for the dual and phi for
    # the phi-dual
    for m in [U(2, 4, 1), one_loop(), diagonal_flat_matroid()] + lattice_cases():
        top = m.rank(m.E)
        for d, anti in ((m.dual(), orthogonal_complement), (phi_dual(m), phi)):
            assert d._table is None
            for a, b in compared_images(m.q, m.n, anti):
                assert d.rank(a) == a.dim - top + m.rank(b)


def test_constructions_scan_an_unvalidated_table():
    # E below its hyperplanes breaks (R2); the scan behind certificates()
    # rejects it wherever a construction reads the cyclic flats
    table = dict(full_rank_table(U(2, 3, 2)))
    table[Subspace.full(2, 3)] = 1
    ident = [[1 if j == i else 0 for j in range(3)] for i in range(3)]
    for build in (QMatroid.dual, phi_dual, lambda m: transport(m, ident)):
        with pytest.raises(InputError, match=r"\(R2\)"):
            build(QMatroid.from_rank_table(2, 3, table))


def test_dual_of_uniform():
    for q, n in ((2, 4), (3, 3)):
        for k in range(n + 1):
            assert rank_tables_equal(U(q, n, k).dual(), U(q, n, n - k))


def test_dual_swaps_loops_and_coloops():
    for m in small_corpus():
        d = m.dual()
        assert m.has_loops() == d.has_coloops()
        assert m.has_coloops() == d.has_loops()
        loop_dims = sorted(s.rows for s in m.loops())
        coloop_dims = sorted(orthogonal_complement(s).rows for s in d.coloops())
        assert (not m.has_loops()) or loop_dims == coloop_dims


def test_phi_dual_is_an_involution_and_isomorphic_to_dual():
    m = diagonal_flat_matroid()
    pd = phi_dual(m)
    assert rank_tables_equal(phi_dual(pd), m)
    assert is_isomorphic(pd, m.dual())
    lop = one_loop()
    assert rank_tables_equal(phi_dual(phi_dual(lop)), lop)


def test_minor_identities():
    m = diagonal_flat_matroid()
    E = Subspace.full(2, 4)
    zero = Subspace.zero(2, 4)
    assert m.restriction(E) is m or rank_tables_equal(m.restriction(E), m)
    assert rank_tables_equal(m.contraction(zero), m)
    seam = span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    res = m.restriction(seam)
    assert res.n == 2 and res.rank(Subspace.full(2, 2)) == 1
    con = m.contraction(seam)
    assert con.n == 2 and con.rank(Subspace.full(2, 2)) == 1


def test_minor_rank_formula():
    m = U(2, 4, 2)
    sub = span(2, 4, (1, 0, 0, 0))
    sup = span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    piece, qmap = m.minor_with_map(sub, sup)
    assert piece.n == 2
    for x in enumerate_subspaces(2, piece.n):
        lifted = qmap.preimage(x)
        assert piece.rank(x) == m.rank(lifted) - m.rank(sub)


def test_certificate_minors_match_the_table_oracle():
    # the same cyclic flats, in the same order and quotient coordinates,
    # as the scan of the minor's rank table
    rng = random.Random(10)
    count = 0
    for q, n, ms, intervals in ((2, 3, 20, 10), (2, 4, 20, 15), (2, 5, 12, 20), (3, 3, 15, 10),
                                (3, 4, 6, 10), (5, 2, 15, 6), (5, 3, 10, 10)):
        for i in range(ms):
            m = composite(rng, q, n)
            if i % 3 == 0:
                m = table_backed(m)
            for _ in range(intervals):
                sub, sup = random_interval(rng, q, n)
                want = minor_by_rank_table(m, sub, sup).certificates()
                assert m.minor(sub, sup).certificates() == want
                count += 1
    assert count >= 1000


def test_contraction_dual_is_restriction_of_dual():
    for m in (U(2, 3, 1), U(2, 3, 2), one_loop(), diagonal_flat_matroid()):
        for a in enumerate_subspaces(m.q, m.n):
            if a.dim in (0, m.n):
                continue
            lhs = m.contraction(a).dual()
            rhs = m.dual().restriction(orthogonal_complement(a))
            assert is_isomorphic(lhs, rhs)


def test_transport_by_identity_and_round_trip():
    rng = random.Random(57)
    for m in (U(2, 3, 2), diagonal_flat_matroid()):
        n, q = m.n, m.q
        ident = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        assert rank_tables_equal(transport(m, ident), m)
        for _ in range(10):
            packed = None
            while packed is None:
                cand = [pack_vector(q, n, [rng.randrange(q) for _ in range(n)])
                        for _ in range(n)]
                try:
                    inv = invert_matrix(q, n, cand)
                except InputError:
                    continue
                packed = cand
            from qmatroids.subspace import unpack_vector
            rows = [unpack_vector(q, n, v) for v in packed]
            inv_rows = [unpack_vector(q, n, v) for v in inv]
            moved = transport(m, rows)
            assert rank_tables_equal(transport(moved, inv_rows), m)
            assert is_isomorphic(moved, m)
    # A -> r(g(A)) for a random invertible g on each ambient, from either
    # backing
    maps = {}
    for m in lattice_cases():
        if (m.q, m.n) not in maps:
            rows = [pack_vector(m.q, m.n, row) for row in random_gl(rng, m.q, m.n)]
            maps[m.q, m.n] = rows, functools.partial(map_by_matrix, images=rows)
        rows, g = maps[m.q, m.n]
        moved = transport(m, rows)
        assert moved._table is None
        for a, image in compared_images(m.q, m.n, g):
            assert moved.rank(a) == m.rank(image)


def test_is_isomorphic_reports_usable_images():
    m = diagonal_flat_matroid()
    images = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    moved = transport(m, images)
    verdict = is_isomorphic(m, moved)
    assert verdict.kind == "yes"
    assert rank_tables_equal(transport(m, verdict.images), moved)


def test_is_isomorphic_negatives():
    v = is_isomorphic(U(2, 2, 1), one_loop())
    assert v.kind == "no" and v.reason
    with pytest.raises(InputError):
        is_isomorphic(U(2, 2, 1), U(2, 3, 1))  # mismatched ground spaces


def test_enumerate_qmatroids_counts():
    for n, count in ((1, 2), (2, 4), (3, 8)):
        ms = list(enumerate_qmatroids(2, n))
        assert len(ms) == count
        for m in ms:
            assert check_rank_axioms(2, n, full_rank_table(m)).ok
        for a, b in itertools.combinations(ms, 2):
            assert is_isomorphic(a, b).kind == "no"


def test_enumerate_qmatroids_budget():
    with pytest.raises(BudgetError):
        list(enumerate_qmatroids(2, 4))
    with pytest.raises(BudgetError):
        list(enumerate_qmatroids(3, 2))


def test_dict_round_trips():
    for m in small_corpus():
        doc = m.to_dict()
        again = QMatroid.from_dict(doc)
        assert rank_tables_equal(m, again)
    table_doc = U(2, 2, 1).to_dict()
    assert "cyclic_flats" in table_doc
    raw = {"q": 2, "n": 1, "ranks": [
        {"basis": [], "r": 0}, {"basis": [[1]], "r": 1}]}
    assert QMatroid.from_dict(raw).rank(Subspace.full(2, 1)) == 1
    bad = {"q": 2, "n": 1, "ranks": [
        {"basis": [], "r": 1}, {"basis": [[1]], "r": 1}]}
    with pytest.raises(InputError):
        QMatroid.from_dict(bad)


def test_lattice_navigation():
    m = diagonal_flat_matroid()
    lat = m.cyclic_flats()
    assert len(lat) == 5
    assert lat.bottom() == Subspace.zero(2, 4)
    assert lat.top() == Subspace.full(2, 4)
    planes = [s for s in lat.spaces() if s.dim == 2]
    assert len(planes) == 3
    for a, b in itertools.combinations(planes, 2):
        assert lat.join(a, b) == lat.top()
        assert lat.meet(a, b) == lat.bottom()
    edges = lat.hasse_edges()
    assert len(edges) == 6
    nodes, esig = lat.shape_signature()
    assert nodes == ((0, 0), (2, 1), (2, 1), (2, 1), (4, 2))
    assert esig == (((0, 0), (2, 1)),) * 3 + (((2, 1), (4, 2)),) * 3


def test_loops_and_coloops_known_cases():
    assert U(2, 2, 0).has_loops() and not U(2, 2, 0).has_coloops()
    assert U(2, 2, 2).has_coloops() and not U(2, 2, 2).has_loops()
    assert not U(2, 2, 1).has_loops() and not U(2, 2, 1).has_coloops()
    lop = one_loop()
    assert [s.coeff_rows() for s in lop.loops()] == [[[1, 1]]]
    # the loop line is a hyperplane of rank 0 < 1, so E is not cyclic
    # and the matroid has a coloop as well
    assert lop.has_coloops()


def _composite_with(rng, q, n, flats):
    """A composite with at least this many cyclic flats."""
    while True:
        m = composite(rng, q, n)
        if len(m.certificates()) >= flats:
            return m


@functools.lru_cache(maxsize=None)
def lattice_cases():
    """320 seeded q-matroids, 32 on each of F_2^2 .. F_2^6, F_3^2 .. F_3^4,
    F_5^2 and F_5^3, every fourth one table-backed.  On F_q^4 and up,
    where composites mostly have one or two cyclic flats, one in four has
    three or more and one in four is the direct sum of two with two or
    more each, so that some joins and meets lie strictly inside."""
    rng = random.Random(18)
    out = []
    for q, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
        for i in range(32):
            if n >= 4 and i % 4 == 1:
                n1 = rng.randint(2, n - 2)
                m = direct_sum(_composite_with(rng, q, n1, 2), _composite_with(rng, q, n - n1, 2))
                m = transport(m, random_gl(rng, q, n))
            else:
                m = _composite_with(rng, q, n, 3 if n >= 4 and i % 4 == 2 else 1)
            out.append(table_backed(m) if i % 4 == 0 else m)
    return out


def test_lattice_operations_match_the_rank_oracle():
    # ends, joins and meets read off the inclusion order equal the closure
    # of the sum and the cyclic core of the intersection; covers equal the
    # test of every triple
    for m in lattice_cases():
        lat = m.cyclic_flats()
        assert lat.bottom() == closure(m, Subspace.zero(m.q, m.n))
        assert lat.top() == cyclic_core(m, m.E)
        for a, b in itertools.combinations_with_replacement(lat.spaces(), 2):
            assert lat.join(a, b) == closure(m, sum_subspaces(a, b))
            assert lat.meet(a, b) == cyclic_core(m, intersect_subspaces(a, b))
        assert lat.hasse_edges() == hasse_edges_by_triples(lat)
        flats = set(lat.spaces())
        outside = next((x for x in enumerate_subspaces(m.q, m.n) if x not in flats), None)
        if outside is not None:
            for query in (lambda: lat.join(outside, lat.top()), lambda: lat.meet(lat.bottom(), outside),
                          lambda: lat.rank_of(outside)):
                with pytest.raises(InputError):
                    query()


def test_loops_and_coloops_match_the_sweeps():
    for m in lattice_cases():
        loops, coloops = loops_by_sweep(m), coloops_by_sweep(m)
        assert sorted(m.loops(), key=Subspace.sort_key) == sorted(loops, key=Subspace.sort_key)
        assert sorted(m.coloops(), key=Subspace.sort_key) == sorted(coloops, key=Subspace.sort_key)
        assert m.has_loops() == bool(loops)
        assert m.has_coloops() == bool(coloops)


def _perturbed(rng, m):
    """The cyclic flats of m with one rank moved by 1, one flat dropped,
    or one random subspace added at a random rank."""
    pairs = list(m.certificates())
    i = rng.randrange(len(pairs))
    kind = rng.randrange(3)
    if kind == 0:
        z, f = pairs[i]
        pairs[i] = (z, f + rng.choice((-1, 1)))
    elif kind == 1:
        del pairs[i]
    else:
        z = random_subspace(rng, m.q, m.n, rng.randint(0, m.n))
        pairs.append((z, rng.randint(0, z.dim)))
    rng.shuffle(pairs)
    return pairs


def test_cyclic_flat_check_matches_the_search_oracle():
    # the same verdict, failures in the same order and the same witnesses
    # as the check with its own masks and bound search
    rng = random.Random(19)
    seen = set()
    for m in lattice_cases():
        for pairs in [list(m.certificates())] + [_perturbed(rng, m) for _ in range(3)]:
            try:
                want = check_cyclic_flat_axioms_by_search(m.q, m.n, pairs)
            except InputError:  # a random subspace that was already a flat
                with pytest.raises(InputError):
                    check_cyclic_flat_axioms(m.q, m.n, pairs)
                continue
            got = check_cyclic_flat_axioms(m.q, m.n, pairs)
            assert (got.ok, got.failures) == (want.ok, want.failures)
            seen |= got.failed_axioms()
        assert check_cyclic_flat_axioms(m.q, m.n, m.certificates()).ok
    assert seen == {"(Z0)", "(Z1)", "(Z2)", "(Z3)"}
