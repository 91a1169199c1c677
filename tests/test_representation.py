"""Matrix representations, linear-set profiles, and the coupling search.

The membership filter inside search_x and the literal flat criterion of
verify_free_product_rep are independent routes; the sweep below checks
them candidate by candidate on the small field.  The basis test of
search_x is also checked hit list by hit list against the whole-rank-table
route of tests/oracles.py, and the image table and the linear-set profile
against their streaming routes.
"""

import os
import random
from collections import Counter

import pytest

from oracles import (
    is_evasive_by_hyperplanes,
    linear_set_profile_by_stream,
    qmatroid_from_system,
    search_x_by_rank_table,
    system_image,
    system_rank,
)

from qmatroids.constructions import direct_sum, free_product, weak_compare_identity
from qmatroids.errors import BudgetError, InputError
from qmatroids.gf import Matrix, ext_field_new
from qmatroids.qmatroid import QMatroid, rank_tables_equal
from qmatroids.representation import (
    QSystem,
    _free_product_flats,
    _image_table,
    block_rep,
    coupling_search_size,
    is_evasive,
    is_i_club,
    linear_set_profile,
    qmatroid_from_matrix,
    search_x,
    verify_free_product_rep,
)
from qmatroids.subspace import Subspace, enumerate_subspaces, intersect_subspaces, pack_vector, vector_index

F16 = ext_field_new(2, 4)
A = F16.generator


def ap(i: int) -> int:
    return F16.pow(A, i)


def pair16():
    return Matrix(F16, [(1, A)]), Matrix(F16, [(1, ap(4))])


def example16():
    G1, G2 = pair16()
    return block_rep(G1, G2, Matrix(F16, [(0, ap(11))]))


def test_identity_matrix_gives_free_matroid():
    I3 = Matrix(F16, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert rank_tables_equal(qmatroid_from_matrix(I3), QMatroid.uniform(2, 3, 3))


def test_single_row_with_proper_element_gives_uniform_line():
    F4 = ext_field_new(2, 2)
    m = qmatroid_from_matrix(Matrix(F4, [(1, F4.generator)]))
    assert rank_tables_equal(m, QMatroid.uniform(2, 2, 1))


def test_block_matrix_has_three_cyclic_flats():
    m = qmatroid_from_matrix(example16())
    got = sorted((z.dim, f) for z, f in m.certificates())
    assert got == [(0, 0), (2, 1), (4, 2)]
    seam = Subspace.from_coeff_rows(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert any(z == seam for z, _ in m.certificates())
    assert verify_free_product_rep(example16(), 2, 1)


def test_matrix_and_system_routes_agree():
    # the matrix route reads the image table; the system route streams
    # every vector of every subspace through QSystem.image
    pairs = [(example16(), QSystem.from_matrix(example16()))]
    rng = random.Random(22)
    for q, m in ((2, 3), (2, 4), (3, 2), (5, 2)):
        F = ext_field_new(q, m)
        for k in (1, 2, 3):
            for n in range(k, min(k * m, {2: 5, 3: 4, 5: 3}[q]) + 1):
                S = _random_system(rng, F, k, n)
                pairs.append((Matrix(F, zip(*S.generators)), S))
    assert len(pairs) > 20
    for G, S in pairs:
        assert rank_tables_equal(qmatroid_from_matrix(G), qmatroid_from_system(S)), G


def test_system_rank_equals_span_dimension():
    S = QSystem.from_matrix(example16())
    m = qmatroid_from_matrix(example16())
    for u in enumerate_subspaces(2, 4):
        assert system_rank(S, u) == m.rank(u)


def test_qsystem_invariant_rejections():
    with pytest.raises(InputError):
        QSystem(F16, 2, [(1, 0), (0, 1), (1, 1)])  # third = sum of first two
    with pytest.raises(InputError):
        QSystem(F16, 2, [(1, 0), (A, 0)])  # span misses the second axis


def test_profile_of_the_club_example():
    S = QSystem.from_matrix(example16())
    profile = linear_set_profile(S)
    assert profile.rank == 4
    assert profile.weights() == [1] * 12 + [2]
    heavy = [pt for pt, w in profile.points if w == 2]
    assert heavy == [(1, 0)]
    assert is_i_club(S) == 2
    assert is_evasive(S, 1, 1)
    assert not is_evasive(S, 2, 1)  # the heavy point is the hyperplane holding the first axis


def test_profile_weight_partition_identity():
    S = QSystem.from_matrix(example16())
    profile = linear_set_profile(S)
    assert sum(2**w - 1 for _, w in profile.points) == 2**4 - 1


def test_zero_coupling_is_not_a_free_product_representation():
    G1, G2 = pair16()
    G0 = block_rep(G1, G2, Matrix(F16, [(0, 0)]))
    assert not verify_free_product_rep(G0, 2, 1)
    S0 = QSystem.from_matrix(G0)
    assert linear_set_profile(S0).weights() == [1] * 6 + [2] * 3
    assert is_i_club(S0) is None
    assert not is_evasive(S0, 1, 1)
    ds = direct_sum(QMatroid.uniform(2, 2, 1), QMatroid.uniform(2, 2, 1))
    assert not rank_tables_equal(qmatroid_from_matrix(G0), ds)


def test_scattered_system_has_no_club():
    Gs = Matrix(F16, [(1, 0, A), (0, 1, F16.mul(A, A))])
    Ss = QSystem.from_matrix(Gs)
    assert linear_set_profile(Ss).weights() == [1] * 7
    assert is_i_club(Ss) is None


def test_coupling_search_size():
    G1, G2 = pair16()
    assert coupling_search_size(G1, G2) == 16
    with pytest.raises(InputError):
        coupling_search_size(Matrix(F16, [(1,)]), Matrix(F16, [(1,)]))


def test_search_over_f16_freezes_the_hit_list():
    G1, G2 = pair16()
    hits = search_x(G1, G2)
    assert len(hits) == 8
    encodings = [h.rows[0][1] for h in hits]
    assert encodings == list(range(8, 16))
    assert [F16.format_element(e) for e in encodings] == [
        "a^3", "a^14", "a^9", "a^7", "a^6", "a^13", "a^11", "a^12"]
    assert ap(11) in encodings
    for h in hits:
        G = block_rep(G1, G2, h)
        assert verify_free_product_rep(G, 2, 1)
        assert is_evasive(QSystem.from_matrix(G), 1, 1)


def test_search_negative_pair_is_empty():
    G1 = Matrix(F16, [(1, A)])
    G2bad = Matrix(F16, [(1, ap(2))])
    assert search_x(G1, G2bad) == []


@pytest.mark.parametrize("g2, equal", [(ap(4), 128), (ap(2), 0)], ids=["frozen", "negative"])
def test_free_product_is_weak_order_maximal(g2, equal):
    # every (G1 X; 0 G2) restricts to U(1,2) on the seam and contracts to
    # U(1,2) by it, so the free product U(1,2) □ U(1,2) lies weakly above
    # it; it is the product exactly when X - x1 G2, the block with its
    # first entry pinned to zero by a row operation, is a search hit
    G1, G2 = Matrix(F16, [(1, A)]), Matrix(F16, [(1, g2)])
    line = QMatroid.uniform(2, 2, 1)
    product = free_product(line, line)
    seam = Subspace.from_coeff_rows(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    hits = {tuple(h.rows[0]) for h in search_x(G1, G2)}
    count = 0
    for x1 in range(16):
        for x2 in range(16):
            m = qmatroid_from_matrix(block_rep(G1, G2, Matrix(F16, [(x1, x2)])))
            for minor in (m.restriction(seam), m.contraction(seam)):
                assert weak_compare_identity(minor, line).relation == "equal"
            relation = weak_compare_identity(product, m).relation
            assert relation in ("equal", "M2<=M1")
            pinned = (0, F16.sub(x2, F16.mul(x1, g2)))
            assert (relation == "equal") == (pinned in hits)
            count += relation == "equal"
    assert count == equal


def test_club_condition_tracks_verification_on_every_candidate():
    G1, G2 = pair16()
    for x2 in range(16):
        G = block_rep(G1, G2, Matrix(F16, [(0, x2)]))
        verified = verify_free_product_rep(G, 2, 1)
        assert verified == (is_i_club(QSystem.from_matrix(G)) == 2)


def _uniform_pairs():
    """(q, n1, k1, n2, k2) for every proper uniform pair with 2 <= n1, n2 <= 3
    over F_2, and with n1 = n2 = 2 over F_3."""
    shapes = [(2, n1, n2) for n1 in (2, 3) for n2 in (2, 3)] + [(3, 2, 2)]
    return [(q, n1, k1, n2, k2) for q, n1, n2 in shapes
            for k1 in range(1, n1) for k2 in range(1, n2)]


@pytest.mark.parametrize("q, n1, k1, n2, k2", _uniform_pairs())
def test_free_product_target_has_the_stated_profile(q, n1, k1, n2, k2):
    # search_x builds its target from _free_product_flats; the formula
    # sweep must agree, and the target's k-spaces of rank k are exactly
    # those meeting the seam in at most k1 dimensions
    n, k = n1 + n2, k1 + k2
    product = free_product(QMatroid.uniform(q, n1, k1), QMatroid.uniform(q, n2, k2))
    flats = _free_product_flats(q, n, n1, k1, k)
    assert list(product.certificates()) == sorted(flats.items(), key=lambda p: p[0].sort_key())
    seam = next(z for z, r in flats.items() if r == k1)
    for s in enumerate_subspaces(q, n, [k]):
        assert (product.rank(s) == k) == (intersect_subspaces(s, seam).dim <= k1), s


def _search_pairs():
    """(G1, G2, hits) cases for the differential search test."""
    G1, G2 = pair16()
    moore = [(1, A, ap(2)), (1, ap(2), ap(4))]
    F81 = ext_field_new(3, 4)
    c = F81.generator
    return {
        "gf16-frozen": (G1, G2, 8),
        "gf16-negative": (G1, Matrix(F16, [(1, ap(2))]), 0),
        "gf81-q3": (Matrix(F81, [(1, c)]), Matrix(F81, [(1, F81.pow(c, 3))]), 54),
        "gf16-moore-k3": (G1, Matrix(F16, moore), 0),
    }


@pytest.mark.parametrize("case", list(_search_pairs()))
def test_search_matches_the_rank_table_route(case):
    G1, G2, count = _search_pairs()[case]
    hits = search_x(G1, G2)
    assert len(hits) == count
    assert hits == search_x_by_rank_table(G1, G2)


def test_search_guards():
    G1, G2 = pair16()
    F32 = ext_field_new(2, 5)
    c = F32.generator
    with pytest.raises(BudgetError):  # 32^3 candidates, past the 2^14 budget
        search_x(Matrix(F32, [(1, c)]), Matrix(F32, [tuple(F32.pow(c, i) for i in range(4))]))
    with pytest.raises(InputError):
        search_x(G1, Matrix(F16, [(1,)]))  # k2 = n2 leaves no free part
    F4 = ext_field_new(2, 2)
    with pytest.raises(InputError):
        search_x(G1, Matrix(F4, [(1, F4.generator)]))


def _random_system(rng, field, k, n):
    """A seeded q-system: random generators, redrawn until they are valid."""
    while True:
        gens = [[rng.randrange(field.order) for _ in range(k)] for _ in range(n)]
        try:
            return QSystem(field, k, gens)
        except InputError:
            continue


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_image_table_matches_system_images(q, m):
    F = ext_field_new(q, m)
    rng = random.Random(100 * q + m)
    for k in (1, 2, 3):
        for n in range(k, min(k * m, 8 if q == 2 else 4) + 1):
            S = _random_system(rng, F, k, n)
            table = _image_table(F, S.generators)
            assert len(table) == q**n
            for i, image in enumerate(table):
                coeffs = [(i // q**j) % q for j in range(n)]
                assert vector_index(q, n, pack_vector(q, n, coeffs)) == i
                assert image == system_image(S, coeffs)


def test_profile_matches_the_streaming_route():
    rng = random.Random(7)
    fields = [ext_field_new(2, m) for m in range(3, 7)] + [ext_field_new(3, m) for m in (2, 3)]
    checked = clubs = 0
    for F in fields:
        for n in range(2, min(2 * F.m, 6) + 1):
            for _ in range(2):
                S = _random_system(rng, F, 2, n)
                profile = linear_set_profile(S)
                assert profile == linear_set_profile_by_stream(S)
                clubs += profile.club_index() is not None
                checked += 1
    assert checked >= 50 and clubs > 0


def test_evasivity_matches_the_hyperplane_route():
    rng = random.Random(22)
    fields = [ext_field_new(2, m) for m in (4, 5, 6)] + [ext_field_new(3, m) for m in (2, 3)]
    fields.append(ext_field_new(5, 2))
    # the two clubs have a heavy (1, 0), which only k1 = 2 counts
    systems = [QSystem.from_matrix(example16()), QSystem.from_matrix(example128())]
    for F in fields:
        for n in range(2, min(2 * F.m, 6 if F.q == 2 else 4) + 1):
            systems += [_random_system(rng, F, 2, n) for _ in range(2)]
    verdicts = Counter()
    for S in systems:
        for k1 in (1, 2):
            for h in range(S.n + 1):
                got = is_evasive(S, k1, h)
                assert got == is_evasive_by_hyperplanes(S, k1, h), (S, k1, h)
                verdicts[got] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_evasivity_lives_on_the_projective_line():
    F = ext_field_new(2, 3)
    S = QSystem(F, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for k1 in (1, 2, 3):
        with pytest.raises(InputError):
            is_evasive(S, k1, 1)
    S2 = QSystem.from_matrix(example16())
    for k1, h in ((0, 1), (3, 1), (1, -1)):
        with pytest.raises(InputError):
            is_evasive(S2, k1, h)


@pytest.mark.parametrize("rows", [[[1, 99]], [[1, 16]], [[1, -1]], [[1.7, 2]], [[True, 2]]],
                         ids=["too-large", "order", "negative", "float", "bool"])
def test_matrix_entries_must_be_field_elements(rows):
    with pytest.raises(InputError):
        Matrix(F16, rows)
    with pytest.raises(InputError):
        QSystem(F16, 2, [*rows, (0, 1)])


F128 = ext_field_new(2, 7)
B = F128.generator


def bp(i: int) -> int:
    return F128.pow(B, i)


def pair128():
    return Matrix(F128, [(1, B)]), Matrix(F128, [(1, bp(2), bp(8))])


def example128():
    G1, G2 = pair128()
    return block_rep(G1, G2, Matrix(F128, [(0, bp(36), bp(24))]))


def test_club_of_rank_five_over_the_big_field():
    G = example128()
    assert verify_free_product_rep(G, 2, 1)
    S = QSystem.from_matrix(G)
    profile = linear_set_profile(S)
    assert profile.rank == 5
    assert Counter(profile.weights()) == {1: 28, 2: 1}
    assert is_i_club(S) == 2
    assert is_evasive(S, 1, 1)


@pytest.mark.vamos
@pytest.mark.skipif(not os.environ.get("QM_RUN_VAMOS"),
                    reason="16384-candidate search; set QM_RUN_VAMOS=1")
def test_full_search_over_the_big_field():
    G1, G2 = pair128()
    assert coupling_search_size(G1, G2) == 16384
    hits = search_x(G1, G2)
    assert len(hits) == 7040
    want = (0, bp(36), bp(24))
    assert any(h.rows[0] == want for h in hits)
    sample = block_rep(G1, G2, hits[0])
    assert verify_free_product_rep(sample, 2, 1)
    assert is_i_club(QSystem.from_matrix(sample)) == 2


@pytest.mark.vamos
@pytest.mark.skipif(not os.environ.get("QM_RUN_VAMOS"),
                    reason="1024 candidates on the rank-table route; set QM_RUN_VAMOS=1")
def test_three_row_search_with_hits_matches_the_rank_table_route():
    # over GF(2^4) the three-row pairs have no hits; this GF(2^5) one has 512
    F32 = ext_field_new(2, 5)
    c = F32.generator
    e = (1, F32.pow(c, 2), F32.pow(c, 6))
    G1 = Matrix(F32, [(1, c)])
    G2 = Matrix(F32, [e, tuple(F32.mul(x, x) for x in e)])
    hits = search_x(G1, G2)
    assert len(hits) == 512
    assert hits == search_x_by_rank_table(G1, G2)
