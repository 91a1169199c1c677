"""Acceptance gate: one test per shipped criterion, with pinned budgets.

Each test measures wall time against the criterion's runtime budget and
records a PASS line through the acceptance fixture; the conftest prints
the collected lines after the run.  Criterion 10 is the opt-in slow
tier and records a SKIP line unless QM_RUN_VAMOS is set.
"""

import itertools
import json
import os
import time
from collections import Counter

import pytest

from qmatroids.cli import main
from qmatroids.constructions import (
    direct_sum,
    free_product,
    free_product_by_formula,
    weak_compare_identity,
)
from qmatroids.factorization import (
    irreducibility_verdict,
    pinchpoints,
    primary_factorization,
    vamos_cyclic_flats_scan,
    vamos_designated_spaces,
    vamos_qmatroid,
)
from qmatroids.qmatroid import (
    QMatroid,
    check_cyclic_flat_axioms,
    check_independence_axioms,
    check_rank_axioms,
    enumerate_qmatroids,
    full_rank_table,
    phi_dual,
    rank_from_independents,
    rank_tables_equal,
)
from qmatroids.subspace import Subspace, enumerate_subspaces

from oracles import closure_pinchpoints, free_product_independents

U = QMatroid.uniform


def span(q, n, *rows):
    return Subspace.from_coeff_rows(2, n, rows)


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_acceptance_01_positive_block_matrix(acceptance, capsys, tmp_path):
    t0 = time.perf_counter()
    g16 = write(tmp_path, "g16.json", {
        "field": {"q": 2, "m": 4},
        "rows": [["1", "a", "0", "a^11"], ["0", "0", "1", "a^4"]]})
    code, rep = run_json(capsys, ["from-matrix", g16])
    assert code == 0
    flats = {(len(e["basis"]), e["rank"]) for e in rep["cyclic_flats"]}
    assert flats == {(0, 0), (2, 1), (4, 2)}
    seam = [e for e in rep["cyclic_flats"] if len(e["basis"]) == 2]
    assert seam[0]["basis"] == [[1, 0, 0, 0], [0, 1, 0, 0]]
    code, rep = run_json(capsys, ["verify-free-product-rep", g16,
                                  "--n1", "2", "--k1", "1"])
    assert code == 0 and rep["verified"] is True
    dt = time.perf_counter() - t0
    assert dt <= 5
    acceptance(f"ACCEPTANCE 01 PASS ({dt:.2f}s <= 5s): block matrix over "
               f"GF(2^4) has cyclic flats 0 < seam < E and verifies")


def test_acceptance_02_negative_search_is_empty(acceptance, capsys, tmp_path):
    t0 = time.perf_counter()
    g1 = write(tmp_path, "g1.json", {
        "field": {"q": 2, "m": 4}, "rows": [["1", "a"]]})
    g2bad = write(tmp_path, "g2bad.json", {
        "field": {"q": 2, "m": 4}, "rows": [["1", "a^2"]]})
    code, rep = run_json(capsys, ["search-x", g1, g2bad])
    assert code == 1
    assert rep["count"] == 0 and rep["hits"] == []
    assert rep["searched"] == 16
    dt = time.perf_counter() - t0
    assert dt <= 10
    acceptance(f"ACCEPTANCE 02 PASS ({dt:.2f}s <= 10s): no coupling block "
               f"works against (1 a^2); all 16 candidates scanned")


def test_acceptance_03_club_of_rank_five(acceptance, capsys, tmp_path):
    t0 = time.perf_counter()
    g128 = write(tmp_path, "g128.json", {
        "field": {"q": 2, "m": 7},
        "rows": [["1", "a", "0", "a^36", "a^24"],
                 ["0", "0", "1", "a^2", "a^8"]]})
    code, rep = run_json(capsys, ["club-check", g128])
    assert code == 0
    assert rep["club"] == 2 and rep["rank"] == 5
    weights = Counter(e["weight"] for e in rep["profile"]["points"])
    assert weights == {1: 28, 2: 1}
    assert sum(2**w - 1 for w in weights.elements()) == 2**5 - 1
    dt = time.perf_counter() - t0
    assert dt <= 30
    acceptance(f"ACCEPTANCE 03 PASS ({dt:.2f}s <= 30s): GF(2^7) system is a "
               f"2-club of rank 5 (one weight-2 point, 28 of weight 1)")


FACTOR_POOL = [U(2, 1, 0), U(2, 1, 1), U(2, 2, 1), U(2, 3, 2)]


def test_acceptance_04_three_construction_routes_agree(acceptance):
    t0 = time.perf_counter()
    for m1, m2 in itertools.product(FACTOR_POOL, repeat=2):
        stacked = free_product(m1, m2)
        formula = free_product_by_formula(m1, m2)
        assert rank_tables_equal(stacked, formula)
        indep = free_product_independents(m1, m2)
        table = rank_from_independents(stacked.q, stacked.n, indep)
        assert table == full_rank_table(stacked)
    dt = time.perf_counter() - t0
    assert dt <= 60
    acceptance(f"ACCEPTANCE 04 PASS ({dt:.2f}s <= 60s): stacking, rank "
               f"formula, and independents agree on all 16 factor pairs")


def test_acceptance_05_axiom_suites_on_all_products(acceptance):
    t0 = time.perf_counter()
    for m1, m2 in itertools.product(FACTOR_POOL, repeat=2):
        prod = free_product(m1, m2)
        q, n = prod.q, prod.n
        assert check_independence_axioms(
            q, n, prod.independent_spaces()).ok
        assert check_rank_axioms(q, n, full_rank_table(prod)).ok
        assert check_cyclic_flat_axioms(q, n, prod.certificates()).ok
    dt = time.perf_counter() - t0
    assert dt <= 60
    acceptance(f"ACCEPTANCE 05 PASS ({dt:.2f}s <= 60s): independence, rank, "
               f"and cyclic-flat axioms hold for all 16 free products")


def test_acceptance_06_direct_sum_is_not_minimal(acceptance):
    t0 = time.perf_counter()
    flats = [
        (span(2, 4), 0),
        (span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)), 1),
        (span(2, 4, (0, 0, 1, 0), (0, 0, 0, 1)), 1),
        (span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1)), 1),
        (Subspace.full(2, 4), 2),
    ]
    assert check_cyclic_flat_axioms(2, 4, flats).ok
    L = QMatroid.from_cyclic_flats(2, 4, flats)
    MN = direct_sum(U(2, 2, 1), U(2, 2, 1))
    verdict = weak_compare_identity(MN, L)
    assert verdict.relation == "M2<=M1"
    diagonal = span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1))
    assert MN.rank(diagonal) == 2 and L.rank(diagonal) == 1
    dt = time.perf_counter() - t0
    assert dt <= 5
    acceptance(f"ACCEPTANCE 06 PASS ({dt:.2f}s <= 5s): identity weak map "
               f"from the direct sum onto L, strict at the diagonal plane")


def test_acceptance_07_free_product_is_weak_order_maximal(acceptance):
    t0 = time.perf_counter()
    prod = free_product(U(2, 2, 1), U(2, 2, 1))
    MN = direct_sum(U(2, 2, 1), U(2, 2, 1))
    L = QMatroid.from_cyclic_flats(2, 4, [
        (span(2, 4), 0),
        (span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)), 1),
        (span(2, 4, (0, 0, 1, 0), (0, 0, 0, 1)), 1),
        (span(2, 4, (1, 0, 1, 0), (0, 1, 0, 1)), 1),
        (Subspace.full(2, 4), 2),
    ])
    seen = 0
    strict_mn = strict_l = 0
    for x in enumerate_subspaces(2, 4):
        seen += 1
        assert prod.rank(x) >= MN.rank(x)
        assert prod.rank(x) >= L.rank(x)
        strict_mn += prod.rank(x) > MN.rank(x)
        strict_l += prod.rank(x) > L.rank(x)
    assert seen == 67
    assert strict_mn > 0 and strict_l > 0
    dt = time.perf_counter() - t0
    assert dt <= 5
    acceptance(f"ACCEPTANCE 07 PASS ({dt:.2f}s <= 5s): product dominates both "
               f"comparison q-matroids across all 67 subspaces, strictly")


def test_acceptance_08_duality_and_associativity(acceptance):
    t0 = time.perf_counter()
    for m1, m2 in itertools.product([U(2, 2, 1), U(2, 2, 2)], repeat=2):
        lhs = phi_dual(free_product(m1, m2))
        rhs = free_product(phi_dual(m2), phi_dual(m1))
        assert rank_tables_equal(lhs, rhs)
    a, b, c = U(2, 1, 1), U(2, 2, 1), U(2, 1, 0)
    left = free_product(free_product(a, b), c)
    right = free_product(a, free_product(b, c))
    assert rank_tables_equal(left, right)
    dt = time.perf_counter() - t0
    assert dt <= 30
    acceptance(f"ACCEPTANCE 08 PASS ({dt:.2f}s <= 30s): product duality under "
               f"the reversal map and associativity are exact")


def test_acceptance_09_factorization_round_trip(acceptance):
    t0 = time.perf_counter()
    prod = free_product(U(2, 2, 1), U(2, 2, 1))
    report = primary_factorization(prod)
    assert [t.dim for t in report.flag] == [0, 2, 4]
    assert report.flag[1] == span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    assert len(report.factors) == 2
    for f in report.factors:
        assert rank_tables_equal(f, U(2, 2, 1))
    assert report.verified  # rebuild equals the input table exactly
    dt = time.perf_counter() - t0
    assert dt <= 10
    acceptance(f"ACCEPTANCE 09 PASS ({dt:.2f}s <= 10s): primary factors of "
               f"the product are two uniform lines split at the seam")


@pytest.mark.vamos
def test_acceptance_10_vamos_is_irreducible(acceptance, capsys, tmp_path):
    if not os.environ.get("QM_RUN_VAMOS"):
        acceptance("ACCEPTANCE 10 SKIP (opt-in slow tier): set QM_RUN_VAMOS=1 "
                   "to stream the full subspace scan")
        pytest.skip("opt-in slow tier; set QM_RUN_VAMOS=1")
    t0 = time.perf_counter()
    found = vamos_cyclic_flats_scan()
    flats = {z for z, _ in found}
    for d in vamos_designated_spaces():
        assert d in flats
    assert found == vamos_qmatroid().certificates()
    v = QMatroid.from_cyclic_flats(2, 8, found, validate=False)
    assert [p.dim for p in closure_pinchpoints(v)] == [0, 8]
    assert pinchpoints(v) == closure_pinchpoints(v)
    assert irreducibility_verdict(v) == (True, None)
    doc = write(tmp_path, "vamos.json", {"builtin": "vamos"})
    # the scan is the rank walk on one process, with no workers to set
    code, rep = run_json(capsys, ["irreducible", doc, "--budget", "vamos"])
    assert code == 0 and rep["irreducible"] and rep["scanned"]
    dt = time.perf_counter() - t0
    assert dt <= 30 * 60
    acceptance(f"ACCEPTANCE 10 PASS ({dt:.2f}s <= 1800s): scan confirms the "
               f"five designated flats and no nontrivial pinchpoint")


def test_acceptance_11_stacked_lattice_golden(acceptance):
    t0 = time.perf_counter()
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
    lat = free_product(M, N).cyclic_flats()
    nodes, edges = lat.shape_signature()
    assert nodes == ((1, 0), (3, 1), (3, 1), (3, 1), (5, 2),
                     (7, 3), (9, 4), (9, 5), (13, 6))
    assert sorted(edges) == sorted(
        (((1, 0), (3, 1)),) * 3 + (((3, 1), (5, 2)),) * 3
        + (((5, 2), (7, 3)), ((5, 2), (9, 5)), ((7, 3), (9, 4)),
           ((9, 4), (13, 6)), ((9, 5), (13, 6))))
    dt = time.perf_counter() - t0
    acceptance(f"ACCEPTANCE 11 PASS ({dt:.2f}s, certificate level): stacked "
               f"lattice has the expected 9 nodes and 11 edges on F_2^13")


def test_acceptance_12_counting_sanity(acceptance):
    t0 = time.perf_counter()
    n1 = len(list(enumerate_qmatroids(2, 1)))
    n2 = len(list(enumerate_qmatroids(2, 2)))
    assert n1 == 2
    assert n2 == 4
    assert n2 >= n1 * n1
    dt = time.perf_counter() - t0
    assert dt <= 60
    acceptance(f"ACCEPTANCE 12 PASS ({dt:.2f}s <= 60s): {n2} q-matroids on "
               f"F_2^2, at least the {n1 * n1} products of the line counts")
