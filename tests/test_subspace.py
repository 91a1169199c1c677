"""Subspace lattice sweeps: canonical forms, lattice identities, budgets."""

import itertools
import random
from collections import Counter

import pytest

from qmatroids import subspace
from qmatroids.errors import BudgetError, InputError
from qmatroids.subspace import (
    DirectSumContext,
    QuotientMap,
    Subspace,
    atoms,
    codim1_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    hyperplane_walk,
    intersect_subspaces,
    invert_matrix,
    lattice_size,
    map_by_matrix,
    orthogonal_complement,
    pack_vector,
    phi,
    reverse,
    subspaces_of,
    sum_subspaces,
    unpack_vector,
    vector_index,
)


def span(q, n, *rows):
    return Subspace.from_coeff_rows(q, n, rows)


def test_pack_unpack_round_trip():
    for q, n in ((2, 5), (3, 3), (5, 2)):
        for idx in range(q**n):
            coeffs = []
            t = idx
            for _ in range(n):
                coeffs.append(t % q)
                t //= q
            v = pack_vector(q, n, coeffs)
            assert unpack_vector(q, n, v) == coeffs
            assert vector_index(q, n, v) == idx


def test_rref_canonical_under_spanning_set_changes():
    rng = random.Random(17)
    for q, n in ((2, 4), (3, 3), (5, 3)):
        for _ in range(60):
            k = rng.randrange(1, n + 1)
            basis = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            a = Subspace.from_coeff_rows(q, n, basis)
            # shuffled, rescaled, and pairwise-mixed spanning sets
            mixed = [row[:] for row in basis]
            for _ in range(6):
                i, j = rng.randrange(k), rng.randrange(k)
                if i == j:
                    c = rng.randrange(1, q)
                    mixed[i] = [(c * x) % q for x in mixed[i]]
                else:
                    c = rng.randrange(q)
                    mixed[i] = [(x + c * y) % q for x, y in zip(mixed[i], mixed[j])]
            rng.shuffle(mixed)
            assert Subspace.from_coeff_rows(q, n, mixed) == a
            assert hash(Subspace.from_coeff_rows(q, n, mixed)) == hash(a)


def test_dim_codim_contains_elements():
    a = span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1))
    assert a.dim == 2
    assert a.contains(span(2, 4, (1, 1, 1, 1)))
    assert not a.contains(span(2, 4, (1, 0, 0, 0)))
    assert len(a.elements()) == 4
    assert bin(a.element_mask()).count("1") == 4
    b = span(3, 3, (1, 0, 2))
    assert len(b.elements()) == 3


def test_elements_count_over_the_basis_in_order():
    # every combination sum(c_i * rows[i]) once, rows[0] varying fastest;
    # over GF(2) this checks the XOR listing against coefficient rows
    for q, n in ((2, 5), (3, 3), (5, 2)):
        for s in enumerate_subspaces(q, n):
            rows = s.coeff_rows()
            want = []
            for coeffs in itertools.product(range(q), repeat=s.dim):
                v = [sum(c * r[i] for c, r in zip(reversed(coeffs), rows)) % q for i in range(n)]
                want.append(pack_vector(q, n, v))
            assert s.elements() == want
            assert s.element_mask() == sum(1 << vector_index(q, n, v) for v in want)


def test_extend_and_contains_vector():
    a = Subspace.zero(2, 4)
    v = pack_vector(2, 4, (1, 1, 0, 0))
    b = a.extend(v)
    assert b.dim == 1 and b.contains_vector(v)
    assert b.extend(v) == b
    # every (subspace, vector) pair: extend is the span of the rows and v,
    # and a vector already inside gives back the subspace itself
    for q, n in ((2, 4), (3, 3), (5, 2)):
        vectors = [pack_vector(q, n, c) for c in itertools.product(range(q), repeat=n)]
        for s in enumerate_subspaces(q, n):
            for v in vectors:
                ext = s.extend(v)
                assert ext.rows == Subspace(q, n, list(s.rows) + [v]).rows
                assert (ext is s) == s.contains_vector(v)


def test_modular_law_exhaustive_gf2():
    all_subs = list(enumerate_subspaces(2, 3))
    assert len(all_subs) == lattice_size(2, 3) == 16
    for a in all_subs:
        for b in all_subs:
            s = sum_subspaces(a, b)
            i = intersect_subspaces(a, b)
            assert a.dim + b.dim == s.dim + i.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(i) and b.contains(i)


def test_modular_law_seeded_gf3():
    rng = random.Random(23)
    subs = list(enumerate_subspaces(3, 3))
    for _ in range(300):
        a, b = rng.choice(subs), rng.choice(subs)
        s = sum_subspaces(a, b)
        i = intersect_subspaces(a, b)
        assert a.dim + b.dim == s.dim + i.dim


def test_orthogonal_complement_laws():
    for q, n in ((2, 3), (3, 2), (5, 2)):
        subs = list(enumerate_subspaces(q, n))
        for a in subs:
            c = orthogonal_complement(a)
            assert c.dim == n - a.dim
            assert orthogonal_complement(c) == a
        for a, b in itertools.product(subs, repeat=2):
            lhs = orthogonal_complement(sum_subspaces(a, b))
            rhs = intersect_subspaces(orthogonal_complement(a), orthogonal_complement(b))
            assert lhs == rhs


def test_reverse_and_phi_are_involutions():
    for q, n in ((2, 4), (3, 3), (5, 3)):
        for a in enumerate_subspaces(q, n):
            assert reverse(reverse(a)) == a
            assert phi(phi(a)) == a
            assert phi(a).dim == n - a.dim


def test_phi_is_inclusion_reversing():
    subs = list(enumerate_subspaces(2, 3))
    for a, b in itertools.product(subs, repeat=2):
        assert phi(sum_subspaces(a, b)) == intersect_subspaces(phi(a), phi(b))
        if a.contains(b):
            assert phi(b).contains(phi(a))


def test_atoms_codim1_covers_counts():
    a = Subspace.full(2, 4)
    assert len(list(atoms(a))) == gaussian_binomial(4, 1, 2) == 15
    assert len(list(codim1_subspaces(a))) == gaussian_binomial(4, 3, 2) == 15


def test_enumerate_subspaces_counts_and_order():
    for q, n in ((2, 4), (3, 3), (5, 3)):
        seen = list(enumerate_subspaces(q, n))
        assert len(seen) == len(set(seen)) == lattice_size(q, n)
        dims = [s.dim for s in seen]
        assert dims == sorted(dims)
        for k in range(n + 1):
            assert dims.count(k) == gaussian_binomial(n, k, q)


def _kernel_hyperplanes(s):
    """The hyperplanes of s, one per functional c on its coordinates in
    atom order (first nonzero entry 1, coordinate 0 counting fastest),
    each spanned by every combination of s's rows that c kills and
    brought to canonical form by Subspace's own elimination."""
    q, n, rows = s.q, s.n, s.coeff_rows()
    coords = [t[::-1] for t in itertools.product(range(q), repeat=s.dim)]
    out = []
    for c in coords:
        if next((x for x in c if x), 0) != 1:
            continue
        kernel = [[sum(x * r[j] for x, r in zip(xs, rows)) % q for j in range(n)]
                  for xs in coords if sum(a * b for a, b in zip(c, xs)) % q == 0]
        out.append(Subspace.from_coeff_rows(q, n, kernel))
    return out


def test_hyperplane_walk_strata_and_ids():
    for q, n in ((2, 4), (3, 3), (3, 4), (5, 3)):
        prev, prev_ids = [], []
        for d, (stratum, hypers) in enumerate(hyperplane_walk(q, n)):
            assert len(stratum) == gaussian_binomial(n, d, q)
            assert stratum == list(enumerate_subspaces(q, n, [d]))
            assert len(hypers) == len(stratum)
            for s, ids in zip(stratum, hypers):
                found = [prev[i] for i in ids]
                assert found == _kernel_hyperplanes(s) == list(codim1_subspaces(s))
                if d:
                    assert len(set(found)) == len(found)
                    assert set(found) == set(subspaces_of(s, [d - 1]))
                # each codimension-2 subspace of s lies in exactly q + 1 of
                # its hyperplanes, the count the diamond rule rests on
                below = Counter(w for i in ids for w in prev_ids[i])
                assert len(below) == gaussian_binomial(d, 2, q)
                assert set(below.values()) <= {q + 1}
            prev, prev_ids = stratum, hypers
        assert d == n


def _walk(q, n):
    return [(stratum, [tuple(ids) for ids in hypers]) for stratum, hypers in hyperplane_walk(q, n)]


def _small_ambients():
    """Every (q, n) whose lattice the memo keeps."""
    for q in (2, 3, 5, 7, 11, 13):
        n = 0
        while q**n <= subspace.STREAM_AMBIENT_LIMIT:
            if lattice_size(q, n) <= subspace.SMALL_LATTICE_LIMIT:
                yield q, n
            n += 1


def test_lattice_memo_matches_a_streaming_build(monkeypatch):
    memo = {}
    monkeypatch.setattr(subspace, "_LATTICES", memo)
    for q, n in _small_ambients():
        if q > 7:
            continue
        with monkeypatch.context() as m:
            m.setattr(subspace, "_LATTICES", {})
            m.setattr(subspace, "SMALL_LATTICE_LIMIT", 0)
            streamed = _walk(q, n)
            assert subspace._LATTICES == {}
        first = _walk(q, n)       # fills the memo's ids
        strata, ids = memo[(q, n)]
        assert [list(st) for st in strata] == [st for st, _ in streamed]
        assert [tuple(flat) for flat in ids] == [sum(hy, ()) for _, hy in streamed]
        assert first == streamed
        replay = _walk(q, n)      # reads them back
        assert replay == streamed
        assert all(a is b for (s1, _), (s2, _) in zip(first, replay) for a, b in zip(s1, s2))
        assert list(enumerate_subspaces(q, n)) == [s for st, _ in streamed for s in st]


def test_lattice_memo_is_bounded_and_shared(monkeypatch):
    memo = {}
    monkeypatch.setattr(subspace, "_LATTICES", memo)
    once, twice = list(enumerate_subspaces(2, 4)), list(enumerate_subspaces(2, 4))
    assert len(once) == 67 and all(a is b for a, b in zip(once, twice))
    assert all(a is b for a, b in zip(subspaces_of(Subspace.full(2, 4), [2]),
                                      enumerate_subspaces(2, 4, [2])))
    assert memo[(2, 4)][1] is None          # no walk has run yet
    walk = hyperplane_walk(2, 4)
    next(walk)
    walk.close()
    assert memo[(2, 4)][1] is None          # a walk left early keeps no ids
    before = dict(memo)
    assert sum(1 for _ in enumerate_subspaces(2, 7)) == lattice_size(2, 7) == 29212
    assert subspace._small_lattice(2, 7) is None
    assert memo == before and all(memo[k] is before[k] for k in before)
    # 13^3 has a small lattice but too many vectors to stream
    assert subspace._small_lattice(13, 3) is None
    with pytest.raises(BudgetError):
        list(enumerate_subspaces(13, 3))
    for q, n in _small_ambients():
        assert subspace._small_lattice(q, n) is not None
    assert len(memo) == 28
    assert sum(len(s) for strata, _ in memo.values() for s in strata) == 7563


def test_subspaces_of_matches_filter():
    everything = list(enumerate_subspaces(2, 4))
    for a in everything:
        if a.dim > 3:
            continue
        inside = set(subspaces_of(a))
        assert inside == {s for s in everything if a.contains(s)}


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(8, 4, 2) == 200787
    assert lattice_size(2, 4) == 67
    assert lattice_size(2, 5) == 374
    for q, n in ((2, 8), (3, 4)):
        assert lattice_size(q, n) == sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def test_dict_round_trip_and_rref_rejection():
    a = span(2, 4, (1, 1, 0, 0), (0, 0, 1, 1))
    assert Subspace.from_dict(a.to_dict()) == a
    doc = {"q": 2, "n": 4, "basis": [[1, 1, 0, 0], [1, 1, 1, 1]]}
    with pytest.raises(InputError) as err:
        Subspace.from_dict(doc)
    # the message carries the canonical form so the doc can be repaired
    assert "[[1, 1, 0, 0], [0, 0, 1, 1]]" in str(err.value)


def test_quotient_map_round_trips():
    for q, n, kernel in ((2, 4, (1, 0, 1, 0)), (5, 3, (1, 3, 0))):
        sub = span(q, n, kernel)
        sup = Subspace.full(q, n)
        qm = QuotientMap(sub, sup)
        for v in sup.elements():
            w = qm.to_quotient(v)
            lifted = qm.lift(w)
            assert qm.to_quotient(lifted) == w
            # lift differs from v by an element of the kernel
            diff = [a - b for a, b in zip(unpack_vector(q, n, v), unpack_vector(q, n, lifted))]
            assert sub.contains_vector(pack_vector(q, n, diff))
        img = qm.map_subspace(span(q, n, (0, 1) + (0,) * (n - 2), kernel))
        assert img.dim == 1
        pre = qm.preimage(img)
        assert pre.contains(sub) and pre.dim == img.dim + sub.dim


def test_quotient_map_respects_inclusion():
    sub = span(3, 3, (1, 1, 0))
    qm = QuotientMap(sub, Subspace.full(3, 3))
    for a in enumerate_subspaces(3, 3):
        if not a.contains(sub):
            continue
        img = qm.map_subspace(a)
        assert img.dim == a.dim - 1
        assert qm.preimage(img) == a


def test_direct_sum_context_identities():
    ctx = DirectSumContext(2, 2, 3)
    subs1 = list(enumerate_subspaces(2, 2))
    subs2 = list(enumerate_subspaces(2, 3))
    for a in subs1:
        for b in subs2:
            s = sum_subspaces(ctx.embed1(a), ctx.embed2(b))
            assert ctx.project1(s) == a and ctx.project2(s) == b
            left, right = ctx.slice(s)
            assert (left, right) == (a, b)
    back = DirectSumContext(2, 3, 2)
    for a in subs1:
        e = ctx.embed1(a)
        assert back.swap(ctx.swap(e)) == e


def test_slice_dims_add_up():
    ctx = DirectSumContext(2, 2, 2)
    for a in enumerate_subspaces(2, 4):
        left, right = ctx.slice(a)
        assert a.dim == left.dim + right.dim


def test_map_by_matrix_and_inverse():
    rng = random.Random(31)
    for q, n in ((2, 4), (3, 3), (5, 3)):
        ident = [pack_vector(q, n, [1 if j == i else 0 for j in range(n)])
                 for i in range(n)]
        subs = list(enumerate_subspaces(q, n))
        for a in subs:
            assert map_by_matrix(a, ident) == a
        for _ in range(20):
            images = None
            while images is None:
                cand = [pack_vector(q, n, [rng.randrange(q) for _ in range(n)])
                        for _ in range(n)]
                try:
                    inv = invert_matrix(q, n, cand)
                except InputError:
                    continue
                images = cand
            for a in rng.sample(subs, 8):
                moved = map_by_matrix(a, images)
                assert moved.dim == a.dim
                assert map_by_matrix(moved, inv) == a


def test_invert_matrix_rejects_singular():
    with pytest.raises(InputError):
        invert_matrix(2, 2, [0b01, 0b01])
    with pytest.raises(InputError):
        invert_matrix(3, 2, [(1, 2), (2, 1)])  # second row is twice the first


def test_budget_guards():
    with pytest.raises(BudgetError):
        list(enumerate_subspaces(2, 11))
    with pytest.raises(BudgetError):
        Subspace.full(2, 14).element_mask()
    with pytest.raises(InputError):
        sum_subspaces(span(2, 3, (1, 0, 0)), span(2, 4, (1, 0, 0, 0)))
    with pytest.raises(InputError):
        span(2, 3, (1, 0, 0, 1))
