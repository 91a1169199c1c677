"""Free separators, the primary flag, and primary splits."""

import functools
import os
import random

import pytest

from cases import acceptance_11_factors
from qmatroids import factorization
from qmatroids.constructions import direct_sum, free_product, free_product_chain
from qmatroids.factorization import (
    irreducibility_verdict,
    is_free_separator,
    is_irreducible,
    pinchpoints,
    primary_factorization,
    vamos_cyclic_flats_scan,
    vamos_designated_spaces,
    vamos_qmatroid,
    vamos_rank,
)
from qmatroids.errors import InputError, InvariantError
from qmatroids.gf import Matrix, ext_field_new, matrix_rank
from qmatroids.qmatroid import QMatroid, rank_tables_equal, transport
from qmatroids.representation import qmatroid_from_matrix
from qmatroids.subspace import Subspace, enumerate_subspaces

from oracles import (
    closure_pinchpoints,
    free_separators,
    generators,
    separator_pinchpoints,
    sum_intersection_closure,
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


def test_free_separators_match_brute_force():
    prod = free_product(U(2, 2, 1), U(2, 2, 1))
    certs = [z for z, _ in prod.certificates()]
    seps = sorted(s.rows for s in free_separators(prod))
    brute = sorted(a.rows for a in enumerate_subspaces(2, 4)
                   if all(a.contains(z) or z.contains(a) for z in certs))
    assert seps == brute
    assert len(seps) == 9
    assert sorted(Subspace(2, 4, r).dim for r in seps) == \
        [0, 1, 1, 1, 2, 3, 3, 3, 4]


def test_every_subspace_separates_a_uniform():
    assert len(list(free_separators(U(2, 4, 2)))) == 67
    assert all(is_free_separator(U(2, 4, 2), a)
               for a in enumerate_subspaces(2, 4))


def test_dm_lattice_of_a_product_keeps_the_seam():
    m = free_product(U(2, 2, 1), U(2, 2, 1))
    closure = sum_intersection_closure(m)
    assert len(closure) == 3
    assert span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0)) in closure
    assert [p.dim for p in closure_pinchpoints(m)] == [0, 2, 4]
    assert pinchpoints(m) == closure_pinchpoints(m)


def test_product_is_reducible_with_seam_witness():
    flag, witness = irreducibility_verdict(free_product(U(2, 2, 1), U(2, 2, 1)))
    assert not flag
    assert witness == span(2, 4, (1, 0, 0, 0), (0, 1, 0, 0))


def test_uniform_reducibility_uses_any_atom():
    flag, witness = irreducibility_verdict(U(2, 4, 2))
    assert not flag and witness.dim == 1
    assert irreducibility_verdict(U(2, 1, 1)) == (True, None)
    assert is_irreducible(U(2, 1, 1))


def test_diagonal_flat_example_is_irreducible():
    m = diagonal_flat_matroid()
    assert len(sum_intersection_closure(m)) == 5
    assert [p.dim for p in closure_pinchpoints(m)] == [0, 4]
    assert pinchpoints(m) == closure_pinchpoints(m)
    assert irreducibility_verdict(diagonal_flat_matroid()) == (True, None)


def _matrix_qmatroid(rng, q, degrees, n):
    """The q-matroid of a random full-rank matrix with n columns and 1 to
    min(3, n) rows over GF(q^m), m drawn from degrees.  About a third of
    the entries are zero, so loops and coloops occur."""
    field = ext_field_new(q, rng.choice(degrees))
    k = rng.randint(1, min(3, n))
    while True:
        rows = [[0 if rng.random() < 0.3 else rng.randrange(1, field.order)
                 for _ in range(n)] for _ in range(k)]
        if matrix_rank(Matrix(field, rows)) == k:
            return qmatroid_from_matrix(Matrix(field, rows))


def _differential_cases(seed):
    """Uniforms, matrix q-matroids over GF(2^2..4) and GF(3^2), and free
    products, triple products and direct sums of small matrix q-matroids,
    all on n <= 5.  Products skip their rank-formula sweep, which other
    tests cover."""
    rng = random.Random(seed)

    def binary(n):
        return _matrix_qmatroid(rng, 2, (2, 3, 4), n)

    def product(m1, m2):
        return free_product(m1, m2, validate=False)

    cases = [U(2, n, k) for n in range(1, 5) for k in range(n + 1)]
    cases += [binary(rng.randint(2, 5)) for _ in range(30)]
    cases += [_matrix_qmatroid(rng, 3, (2,), rng.randint(2, 4)) for _ in range(6)]
    for _ in range(24):
        n1 = rng.randint(1, 3)
        cases.append(product(binary(n1), binary(rng.randint(1, 5 - n1))))
    for _ in range(6):
        cases.append(product(product(binary(1), binary(rng.randint(1, 2))), binary(rng.randint(1, 2))))
    for _ in range(6):
        n1 = rng.randint(1, 3)
        cases.append(direct_sum(binary(n1), binary(rng.randint(1, 5 - n1))))
    # free extensions (by a loop) and coextensions (by a coloop) of direct
    # sums: the flag of U(q,2,1) + U(q,2,1) extended holds a sum, coextended
    # an intersection, of cyclic flats that is not itself a cyclic flat
    for q, other in ((2, U(2, 2, 1)), (3, U(3, 2, 1))) + tuple((2, binary(2)) for _ in range(4)):
        pair = direct_sum(U(q, 2, 1), other)
        cases += [product(pair, U(q, 1, 0)), product(U(q, 1, 1), pair)]
    return cases


def test_pinchpoints_match_both_oracles():
    cases = _differential_cases(2024)
    flags = [pinchpoints(m) for m in cases]
    for m, flag in zip(cases, flags):
        assert flag == closure_pinchpoints(m) == separator_pinchpoints(m), m.to_dict()
    assert len(cases) >= 80
    assert sum(len(flag) > 2 for flag in flags) >= 40
    assert sum(any(x not in generators(m) for x in flag) for m, flag in zip(cases, flags)) >= 4


def test_primary_factorization_of_a_product():
    rep = primary_factorization(free_product(U(2, 2, 1), U(2, 2, 1)))
    assert [t.dim for t in rep.flag] == [0, 2, 4]
    assert rep.factor_kinds == ["uniform", "uniform"]
    assert rep.verified
    assert [f.uniform_parameters() for f in rep.factors] == [1, 1]
    rebuilt = free_product_chain(rep.factors)
    original = transport(free_product(U(2, 2, 1), U(2, 2, 1)),
                         rep.adapted_basis)
    assert rank_tables_equal(rebuilt, original)


def test_primary_factorization_report_dict_shape():
    rep = primary_factorization(free_product(U(2, 1, 1), U(2, 2, 1)))
    d = rep.to_dict()
    assert set(d) == {"flag", "factors", "factor_kinds", "adapted_basis",
                      "verified"}
    assert len(d["adapted_basis"]) == 3
    assert all(len(row) == 3 for row in d["adapted_basis"])
    assert d["verified"] is True


def test_primary_factorization_of_irreducible_is_itself():
    L = diagonal_flat_matroid()
    rep = primary_factorization(L)
    assert len(rep.factors) == 1
    assert rep.factor_kinds == ["irreducible"]
    assert rank_tables_equal(rep.factors[0], transport(L, rep.adapted_basis))


def test_primary_factorization_checks_its_rebuild_at_every_size(monkeypatch):
    m, n = acceptance_11_factors()
    prod = free_product(m, n)
    rep = primary_factorization(prod)
    assert [t.dim for t in rep.flag] == [0, 1, 5, 13] and rep.verified
    assert rep.factors[-1].certificates() == n.certificates()
    # direct sums of the same factors lie strictly below on F_2^13
    monkeypatch.setattr(factorization, "free_product_chain",
                        lambda fs: functools.reduce(direct_sum, fs))
    with pytest.raises(InvariantError):
        primary_factorization(prod)


def test_primary_factorization_guards():
    with pytest.raises(InputError):
        primary_factorization(U(2, 0, 0))


def test_vamos_designated_spaces_and_rank():
    des = vamos_designated_spaces()
    assert len(des) == 5
    rank_of = vamos_rank()
    assert all(d.dim == 4 and rank_of(d) == 3 for d in des)
    id8 = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
    assert rank_of(span(2, 8)) == 0
    assert rank_of(span(2, 8, id8[0])) == 1
    assert rank_of(span(2, 8, *id8[:4])) == 3
    assert rank_of(span(2, 8, *id8[:6])) == 4
    assert rank_of(Subspace.full(2, 8)) == 4


def test_vamos_qmatroid_is_irreducible():
    v = vamos_qmatroid()
    assert sorted((z.dim, f) for z, f in v.certificates()) == \
        [(0, 0)] + [(4, 3)] * 5 + [(8, 4)]
    assert len(sum_intersection_closure(v)) == 16
    assert [p.dim for p in closure_pinchpoints(v)] == [0, 8]
    assert pinchpoints(v) == closure_pinchpoints(v)
    assert irreducibility_verdict(v) == (True, None)


@pytest.mark.vamos
@pytest.mark.skipif(not os.environ.get("QM_RUN_VAMOS"),
                    reason="full lattice scan; set QM_RUN_VAMOS=1")
def test_vamos_scan_confirms_certificates():
    assert vamos_cyclic_flats_scan() == vamos_qmatroid().certificates()
