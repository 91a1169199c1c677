"""End-to-end runs of every CLI verb through main(argv).

Documents are written to tmp_path; stdout is parsed back as JSON where
the assertions need structure.  Exit codes follow the module contract:
0 success or true verdict, 1 false verdict, 2 input error, 3 budget,
4 failed internal check.
"""

import json
import random

import pytest

from cases import acceptance_11_factors, random_gl, random_subspace
from oracles import free_separators
from qmatroids import cli
from qmatroids.cli import VERBS, main
from qmatroids.constructions import direct_sum, free_product, weak_compare_identity
from qmatroids.errors import InvariantError
from qmatroids.qmatroid import QMatroid, transport
from qmatroids.subspace import QuotientMap, Subspace


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def docs(tmp_path):
    paths = {}
    U = QMatroid.uniform
    paths["u12"] = write(tmp_path, "u12.json", U(2, 2, 1).to_dict())
    paths["u24"] = write(tmp_path, "u24.json", U(2, 4, 2).to_dict())
    paths["prod"] = write(tmp_path, "prod.json",
                          free_product(U(2, 2, 1), U(2, 2, 1)).to_dict())
    paths["line"] = write(tmp_path, "line.json",
                          {"basis": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    paths["point"] = write(tmp_path, "point.json", {"basis": [[1, 0, 0, 0]]})
    paths["vamos"] = write(tmp_path, "vamos.json", {"builtin": "vamos"})
    paths["g1"] = write(tmp_path, "g1.json", {
        "field": {"q": 2, "m": 4}, "rows": [["1", "a"]]})
    paths["g2"] = write(tmp_path, "g2.json", {
        "field": {"q": 2, "m": 4}, "rows": [["1", "a^4"]]})
    paths["g2bad"] = write(tmp_path, "g2bad.json", {
        "field": {"q": 2, "m": 4}, "rows": [["1", "a^2"]]})
    paths["g16"] = write(tmp_path, "g16.json", {
        "field": {"q": 2, "m": 4},
        "rows": [["1", "a", "0", "a^11"], ["0", "0", "1", "a^4"]]})
    paths["g0"] = write(tmp_path, "g0.json", {
        "field": {"q": 2, "m": 4},
        "rows": [["1", "a", "0", "0"], ["0", "0", "1", "a^4"]]})
    return paths


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_all_verbs_are_wired():
    assert len(VERBS) == 18


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_verify_axioms_true_and_false(capsys, docs, tmp_path):
    code, rep = run_json(capsys, ["verify-axioms", docs["u12"]])
    assert code == 0 and rep["ok"] and rep["failures"] == []
    bad = write(tmp_path, "bad.json", {
        "q": 2, "n": 1,
        "ranks": [{"basis": [], "r": 1}, {"basis": [[1]], "r": 1}]})
    code, rep = run_json(capsys, ["verify-axioms", bad])
    assert code == 1 and not rep["ok"]
    assert any(f["axiom"] == "(R1)" for f in rep["failures"])


def test_cyclic_flats_report(capsys, docs):
    code, rep = run_json(capsys, ["cyclic-flats", docs["prod"]])
    assert code == 0
    assert rep["count"] == 3 and len(rep["edges"]) == 2
    assert sorted(n["dim"] for n in rep["nodes"]) == [0, 2, 4]
    assert rep["scanned"] is False


def test_rank_verb(capsys, docs):
    code, rep = run_json(capsys, ["rank", docs["prod"], docs["line"]])
    assert code == 0 and rep["rank"] == 1
    code, out = run(capsys, ["rank", docs["prod"], docs["line"]])
    assert code == 0 and out.strip() == "rank 1"


def test_free_product_and_direct_sum_verbs(capsys, docs):
    code, rep = run_json(capsys, ["free-product", docs["u12"], docs["u12"]])
    assert code == 0 and rep["rank"] == 2 and len(rep["cyclic_flats"]) == 3
    code, rep = run_json(capsys, ["direct-sum", docs["u12"], docs["u12"]])
    assert code == 0 and rep["rank"] == 2 and len(rep["cyclic_flats"]) == 4


def test_dual_restrict_contract_minor(capsys, docs):
    code, rep = run_json(capsys, ["dual", docs["u24"]])
    assert code == 0 and rep["rank"] == 2
    code, rep = run_json(capsys, ["restrict", docs["prod"], docs["line"]])
    assert code == 0 and rep["n"] == 2 and rep["rank"] == 1
    code, rep = run_json(capsys, ["contract", docs["prod"], docs["line"]])
    assert code == 0 and rep["n"] == 2 and rep["rank"] == 1
    code, rep = run_json(capsys, ["minor", docs["prod"], docs["point"],
                                  docs["line"]])
    assert code == 0 and rep["n"] == 1


def test_weak_compare_verb(capsys, docs, tmp_path):
    ds = write(tmp_path, "ds.json", json.loads(open(docs["u12"]).read()))
    code, rep = run_json(capsys, ["weak-compare", docs["u12"], ds])
    assert code == 0 and rep["relation"] == "equal"
    swapped = write(tmp_path, "sw.json", {
        "q": 2, "n": 4, "cyclic_flats": [
            {"basis": [], "rank": 0},
            {"basis": [[0, 0, 1, 0], [0, 0, 0, 1]], "rank": 1},
            {"basis": [[1, 0, 0, 0], [0, 1, 0, 0],
                       [0, 0, 1, 0], [0, 0, 0, 1]], "rank": 2}]})
    code, rep = run_json(capsys, ["weak-compare", docs["prod"], swapped])
    assert code == 1 and rep["relation"] == "incomparable"
    assert set(rep["witnesses"]) == {"r1>r2", "r1<r2"}


def test_factorize_verb(capsys, docs):
    code, rep = run_json(capsys, ["factorize", docs["prod"]])
    assert code == 0
    assert rep["factor_kinds"] == ["uniform", "uniform"]
    assert rep["verified"] is True
    assert [len(t["basis"]) for t in rep["flag"]] == [0, 2, 4]


def test_certificate_verbs_on_the_acceptance_11_product(capsys, tmp_path):
    # F_2^13 is past every lattice sweep: weak-compare, factorize and
    # contract read the cyclic flats alone
    m, n = acceptance_11_factors()
    prod = write(tmp_path, "prod.json", free_product(m, n).to_dict())
    summed = write(tmp_path, "sum.json", direct_sum(m, n).to_dict())
    seam = write(tmp_path, "seam.json", {"basis": [[int(i == j) for j in range(13)] for i in range(5)]})
    code, rep = run_json(capsys, ["weak-compare", prod, summed])
    assert code == 0 and rep["relation"] == "M2<=M1" and set(rep["witnesses"]) == {"r1>r2"}
    code, rep = run_json(capsys, ["factorize", prod])
    assert code == 0 and rep["verified"] is True
    assert [len(t["basis"]) for t in rep["flag"]][-2:] == [5, 13]
    code, rep = run_json(capsys, ["contract", prod, seam])
    assert code == 0 and weak_compare_identity(QMatroid.from_dict(rep), n).relation == "equal"


def test_free_product_of_a_factor_past_the_stream_budget(capsys, tmp_path):
    # loops and coloops are read off the ends of the cyclic-flat lattice,
    # so a factor on F_2^11 needs no atom or hyperplane stream of 2^11
    U = QMatroid.uniform
    small = write(tmp_path, "u221.json", U(2, 2, 1).to_dict())
    big = write(tmp_path, "u2113.json", U(2, 11, 3).to_dict())
    for left, right in ((small, big), (big, small)):
        code, rep = run_json(capsys, ["free-product", left, right])
        assert code == 0 and rep["rank"] == 4 and len(rep["cyclic_flats"]) == 3
    m = direct_sum(U(2, 6, 2), U(2, 6, 3))
    assert not m.has_loops() and not m.has_coloops()


def test_minors_past_the_stream_budget(capsys, tmp_path):
    # flatness and cyclicity are read off the flats that minimize the rank
    # formula, so no minor streams the atoms or hyperplanes of F_2^13
    rng = random.Random(20)
    m, n = acceptance_11_factors()
    prod = free_product(transport(m, random_gl(rng, 2, 5)), transport(n, random_gl(rng, 2, 8)))
    path = write(tmp_path, "prod.json", prod.to_dict())
    zero, unit = Subspace.zero(2, 13), Subspace.from_coeff_rows(2, 13, [[int(j == 12) for j in range(13)]])
    hyper = Subspace.from_coeff_rows(2, 13, [[int(i == j) for j in range(13)] for i in range(12)])
    for verb, sub, sup, arg in (("restrict", zero, hyper, hyper), ("contract", unit, prod.E, unit)):
        code, rep = run_json(capsys, [verb, path, write(tmp_path, f"{verb}.json", arg.to_dict())])
        assert code == 0, verb
        minor, qm = QMatroid.from_dict(rep), QuotientMap(sub, sup)
        for _ in range(60):
            t = random_subspace(rng, 2, qm.dim, rng.randint(0, qm.dim))
            assert minor.rank(t) == prod.rank(qm.preimage(t)) - prod.rank(sub)
    U = QMatroid.uniform
    path = write(tmp_path, "u.json", free_product(U(2, 2, 1), U(2, 11, 3)).to_dict())
    code, rep = run_json(capsys, ["factorize", path])
    assert code == 0 and rep["verified"] is True


def test_irreducible_verb(capsys, docs):
    code, rep = run_json(capsys, ["irreducible", docs["prod"]])
    assert code == 1 and rep["irreducible"] is False
    assert rep["witness"]["basis"] == [[1, 0, 0, 0], [0, 1, 0, 0]]
    code, rep = run_json(capsys, ["irreducible", docs["vamos"]])
    assert code == 0 and rep["irreducible"] is True and rep["witness"] is None


def test_irreducible_and_factorize_past_24_cyclic_flats(capsys, tmp_path):
    g = write(tmp_path, "g65.json", {
        "field": {"q": 2, "m": 4},
        "rows": [[12, 13, 0, 7, 12, 7], [0, 6, 0, 11, 1, 9], [0, 14, 9, 8, 0, 11]]})
    code, rep = run_json(capsys, ["from-matrix", g])
    assert code == 0 and len(rep["cyclic_flats"]) == 65
    doc = write(tmp_path, "m65.json", rep)
    assert [x.dim for x in free_separators(cli._load_matroid(doc))] == [0, 6]
    code, rep = run_json(capsys, ["irreducible", doc])
    assert code == 0 and rep["irreducible"] is True and rep["witness"] is None
    code, rep = run_json(capsys, ["factorize", doc])
    assert code == 0
    assert [len(t["basis"]) for t in rep["flag"]] == [0, 6]
    assert rep["factor_kinds"] == ["irreducible"]
    assert rep["verified"] is True


def test_from_matrix_verb(capsys, docs):
    code, rep = run_json(capsys, ["from-matrix", docs["g16"]])
    assert code == 0 and rep["rank"] == 2
    assert sorted(len(e["basis"]) for e in rep["cyclic_flats"]) == [0, 2, 4]


def test_club_check_verb(capsys, docs):
    code, rep = run_json(capsys, ["club-check", docs["g16"]])
    assert code == 0 and rep["club"] == 2 and rep["rank"] == 4
    weights = sorted(e["weight"] for e in rep["profile"]["points"])
    assert weights == [1] * 12 + [2]
    code, out = run(capsys, ["club-check", docs["g16"]])
    assert out.splitlines()[0] == "2-club of rank 4"


def test_club_check_profiles_once(capsys, monkeypatch, docs):
    # the club index is read off the one profile of the report
    from qmatroids import representation
    original = representation.linear_set_profile
    calls = []

    def counting_profile(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(cli, "linear_set_profile", counting_profile)
    monkeypatch.setattr(representation, "linear_set_profile", counting_profile)
    code, rep = run_json(capsys, ["club-check", docs["g16"]])
    assert code == 0 and rep["club"] == 2
    assert len(calls) == 1


def test_evasive_check_verb(capsys, docs):
    code, rep = run_json(capsys, ["evasive-check", docs["g16"],
                                  "--k1", "1", "--h", "1"])
    assert code == 0 and rep["evasive"] is True


def test_evasive_check_needs_two_rows(capsys, tmp_path):
    # hyperplanes of F_{q^m}^2 are the points of the profile's projective line
    g3 = write(tmp_path, "g3.json", {
        "field": {"q": 2, "m": 3}, "rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    assert main(["evasive-check", g3, "--k1", "1", "--h", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_search_x_verb(capsys, docs):
    code, rep = run_json(capsys, ["search-x", docs["g1"], docs["g2"]])
    assert code == 0
    assert rep["count"] == 8 and rep["searched"] == 16
    assert ["0", "a^11"] in [h["rows"][0] for h in rep["hits"]]
    code, out = run(capsys, ["search-x", docs["g1"], docs["g2"]])
    assert out.splitlines()[0] == "8 coupling blocks out of 16 candidates"


def test_options_go_only_to_the_verbs_that_read_them(capsys, docs):
    # --q means nothing to a document that names its own field, a matrix's
    # base field is the prime of its field, a matrix document is the one
    # source of its modulus, and no verb starts processes
    modulus = ["--modulus", "1,1,0,0,1"]
    for argv in (["cyclic-flats", docs["u12"], "--q", "3"],
                 ["from-matrix", docs["g16"], "--q", "2"],
                 ["verify-free-product-rep", docs["g16"], "--n1", "2", "--k1", "1", "--q", "0"],
                 ["rank", docs["u24"], docs["point"], "--workers", "2"],
                 ["search-x", docs["g1"], docs["g2"], "--workers", "2"],
                 ["from-matrix", docs["g16"], *modulus],
                 ["club-check", docs["g16"], *modulus],
                 ["evasive-check", docs["g16"], "--k1", "1", "--h", "1", *modulus],
                 ["search-x", docs["g1"], docs["g2"], *modulus],
                 ["verify-free-product-rep", docs["g16"], "--n1", "2", "--k1", "1", *modulus]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_search_x_negative_exit(capsys, docs):
    code, rep = run_json(capsys, ["search-x", docs["g1"], docs["g2bad"]])
    assert code == 1 and rep["count"] == 0 and rep["searched"] == 16


def test_verify_free_product_rep_verb(capsys, docs):
    code, rep = run_json(capsys, ["verify-free-product-rep", docs["g16"],
                                  "--n1", "2", "--k1", "1"])
    assert code == 0 and rep["verified"] is True
    code, out = run(capsys, ["verify-free-product-rep", docs["g0"],
                             "--n1", "2", "--k1", "1"])
    assert code == 1 and out.strip() == "false"


def test_enumerate_verb(capsys):
    code, rep = run_json(capsys, ["enumerate", "--n", "2"])
    assert code == 0 and rep["count"] == 4
    code, out = run(capsys, ["enumerate", "--n", "2"])
    assert out.splitlines()[0] == "4 q-matroids on F_2^2 up to isomorphism"


def test_enumerate_budget_exit(capsys):
    for argv in (["--n", "4"], ["--n", "2", "--q", "3"]):
        assert main(["enumerate", *argv]) == 3
        assert "budget" in capsys.readouterr().err


def test_matrix_past_the_stream_budget_exits_3(capsys, tmp_path):
    # the budget is checked before the table of q^n images, which for 40
    # columns would not fit in memory
    for verb, k, extra in (("from-matrix", 1, []), ("verify-free-product-rep", 2, ["--n1", "20", "--k1", "1"])):
        rows = [[str(int(i == j)) for j in range(40)] for i in range(k)]
        path = write(tmp_path, f"wide{k}.json", {"field": {"q": 2, "m": 4}, "rows": rows})
        assert main([verb, path, *extra]) == 3
        assert capsys.readouterr().err.startswith("budget exhausted: streaming over an ambient ")


def test_document_ambient_budget(capsys, tmp_path):
    # building the ground space lists n unit vectors of length n, so an
    # ambient past 2^64 vectors is refused before it is built
    for q, n, code in ((2, 64, 0), (2, 65, 3), (3, 40, 0), (3, 41, 3), (2, 16000, 3), (2, 10**100, 3)):
        path = write(tmp_path, f"big{q}_{n}.json",
                     {"q": q, "n": n, "cyclic_flats": [{"basis": [], "rank": 0}]})
        for verb in ("cyclic-flats", "verify-axioms"):
            assert main([verb, path]) == code, (q, n, verb)
            err = capsys.readouterr().err
            assert (code == 3) == err.startswith("budget exhausted: a q-matroid on ")


def test_unsupported_field_size_exits_2(capsys):
    # --q 0 is not the default field; 4 is not a prime, so no budget applies
    assert main(["enumerate", "--n", "2", "--q", "0"]) == 2
    assert main(["enumerate", "--n", "2", "--q", "4"]) == 2
    capsys.readouterr()


def test_invariant_error_exits_4(capsys, monkeypatch, docs):
    def broken(args):
        raise InvariantError("walk met 3 subspaces of dim 1, expected 7")

    monkeypatch.setitem(cli._HANDLERS, "cyclic-flats", broken)
    assert main(["cyclic-flats", docs["u12"]]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: walk met 3")
    assert captured.out == ""


def test_any_other_exception_exits_4(capsys, monkeypatch, docs):
    # exit 1 is a false verdict, so a fault no handler names is reported
    # as an internal error with its type
    def broken(args):
        raise IndexError("list index out of range")

    monkeypatch.setitem(cli._HANDLERS, "from-matrix", broken)
    assert main(["from-matrix", docs["g16"]]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: IndexError: list index out of range")
    assert "Traceback" in captured.err and captured.out == ""


def test_input_error_exits(capsys, docs, tmp_path):
    assert main(["cyclic-flats", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["cyclic-flats", str(garbled)]) == 2
    assert main(["rank", docs["u12"], docs["line"]]) == 2  # ambient mismatch
    with pytest.raises(SystemExit):
        main(["no-such-verb", docs["u12"]])
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"q": 2, "n": 1, "ranks": [{"basis": []}, {"basis": [[1]], "r": 1}]},
    {"q": 2, "n": 1, "cyclic_flats": [{"basis": []}]},
    {"q": 2, "n": 1, "cyclic_flats": "xx"},
    {"q": 2, "n": -1, "cyclic_flats": []},
    {"q": 2, "n": 1, "ranks": [{"basis": [], "r": 0}, {"basis": [[1]], "r": 1},
                               {"basis": [[1]], "r": 0}]},
    {"q": 2, "n": 2, "cyclic_flats": [{"basis": [], "rank": 0},
                                      {"basis": [[1, 0], [0, 1]], "rank": 1.7}]},
    {"q": 2.9, "n": "1", "ranks": [{"basis": [], "r": 0}, {"basis": [[1]], "r": 1}]},
    {"q": 2.0, "n": True, "ranks": [{"basis": [], "r": 0}, {"basis": [[1]], "r": 1}]},
    {"builtin": "vamos", "q": 2.9},
], ids=["rank-entry-without-r", "flat-without-rank", "flats-not-a-list", "negative-n",
        "repeated-subspace", "non-integer-rank", "float-and-string-header",
        "float-and-bool-header", "float-builtin-q"])
def test_malformed_documents_exit_2(capsys, tmp_path, doc):
    path = write(tmp_path, "bad.json", doc)
    for verb in ("verify-axioms", "cyclic-flats"):
        assert main([verb, path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_malformed_subspace_document_exits_2(capsys, docs, tmp_path):
    space = write(tmp_path, "space.json", {"q": 2.0, "n": 2, "basis": [[1, 0]]})
    assert main(["rank", docs["u12"], space]) == 2
    assert "'q' is not an integer" in capsys.readouterr().err
    space = write(tmp_path, "space.json", {"basis": 5})
    assert main(["rank", docs["u12"], space]) == 2
    assert "is not a list of rows" in capsys.readouterr().err


@pytest.mark.parametrize("q, row", [(2, [1.5, 0]), (2, [True, 0]), (2, [3, 0]), (2, [-1, 0]),
                                    (3, [1.5, 0]), (2, "10")],
                         ids=["float", "bool", "too-large", "negative", "float-q3", "string-row"])
def test_basis_coefficients_are_checked(capsys, tmp_path, q, row):
    # pack_vector reads a coefficient mod q, so 1.5, True, 3 and -1 would
    # pass for 1 on q = 2; the document boundary rejects them
    bad = write(tmp_path, "bad.json", {"q": q, "n": 2, "cyclic_flats": [
        {"basis": [], "rank": 0}, {"basis": [row, [0, 1]], "rank": 1}]})
    good = write(tmp_path, "good.json", QMatroid.uniform(q, 2, 1).to_dict())
    space = write(tmp_path, "space.json", {"basis": [row]})
    for argv in (["cyclic-flats", bad], ["dual", bad], ["verify-axioms", bad],
                 ["rank", bad, space], ["rank", good, space]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


GF16 = {"q": 2, "m": 4}
GF4 = {"q": 2, "m": 2}


@pytest.mark.parametrize("doc, message", [
    ({"field": {"q": 2.9, "m": "4"}, "rows": [["1", "a"]]}, "is not an integer"),
    ({"field": {"q": 2, "m": "4"}, "rows": [["1", "a"]]}, "is not an integer"),
    ({"field": {**GF16, "modulus": 5}, "rows": [["1", "a"]]}, "'int' object is not iterable"),
    ({"field": {**GF16, "modulus": [1.7, 1, 0, 0, 1]}, "rows": [["1", "a"]]}, "is not an integer"),
    ({"field": {**GF16, "modulus": ["1", "1", "0", "0", "1"]}, "rows": [["1", "a"]]},
     "is not an integer"),
    ({"field": GF16, "rows": 5}, "'rows' must be a list of lists"),
    ({"field": GF16, "rows": [[1, 2], 5]}, "'rows' must be a list of lists"),
    ({"field": GF16, "rows": [[1, True]]}, "cannot parse True"),
    # coefficients outside 0..q-1: the GF(2) arithmetic packs them as
    # given, so -1 + x + x^4 would multiply as x^4 + 1, and 3 would index
    # past the log tables
    ({"field": {**GF16, "modulus": [-1, 1, 0, 0, 1]}, "rows": [["1", "a"]]},
     "modulus coefficient -1 is not an integer in 0..1"),
    ({"field": {**GF16, "modulus": [1, 3, 0, 0, 1]}, "rows": [["1", "a"]]},
     "modulus coefficient 3 is not an integer in 0..1"),
    ({"field": {**GF4, "modulus": [1, 3, 1]}, "rows": [["1", "a"]]},
     "modulus coefficient 3 is not an integer in 0..1"),
    ({"field": {**GF4, "modulus": [1, -1, 1]}, "rows": [["1", "a"]]},
     "modulus coefficient -1 is not an integer in 0..1"),
    ({"field": {**GF4, "modulus": [3, 1, 1]}, "rows": [["1", "a"]]},
     "modulus coefficient 3 is not an integer in 0..1"),
], ids=["float-q-string-m", "string-m", "int-modulus", "float-modulus-entry",
        "string-modulus-entries", "int-rows", "int-row", "bool-element",
        "negative-modulus-entry", "large-modulus-entry", "gf4-large-middle",
        "gf4-negative-middle", "gf4-large-constant"])
def test_malformed_matrix_document_exits_2(capsys, tmp_path, doc, message):
    g = write(tmp_path, "bad.json", doc)
    for argv in (["from-matrix", g], ["club-check", g],
                 ["evasive-check", g, "--k1", "1", "--h", "1"], ["search-x", g, g],
                 ["verify-free-product-rep", g, "--n1", "1", "--k1", "1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (argv, err)


def _fuzzed_fields(field, rng):
    """The field block with q, m and each modulus coefficient in turn
    replaced by a bad or edge value, then random coefficient vectors."""
    q, modulus = field["q"], field["modulus"]
    for value in (-1, q, q + 1, 1.5, True, "1", None):
        yield {**field, "q": value}
        yield {**field, "m": value}
        for i in range(len(modulus)):
            yield {**field, "modulus": modulus[:i] + [value] + modulus[i + 1:]}
    for _ in range(12):
        top = rng.choice((q, q + 2))
        tail = [rng.randrange(-1, top) for _ in range(field["m"])]
        yield {**field, "modulus": tail + [rng.choice((1, 1, 1, 0, q))]}


@pytest.mark.parametrize("field, rows", [
    ({"q": 2, "m": 4, "modulus": [1, 1, 0, 0, 1]}, [["1", "a", "0", "a^11"], ["0", "0", "1", "a^4"]]),
    ({"q": 3, "m": 2, "modulus": [2, 2, 1]}, [["1", "a", "0", "a^3"], ["0", "0", "1", "a^2"]]),
], ids=["GF(2^4)", "GF(3^2)"])
def test_fuzzed_field_blocks_keep_the_exit_codes(capsys, tmp_path, field, rows):
    # a matrix verb on any field block answers with a verdict (0 or 1) or
    # an input error (2); it never raises, and never exits 1 on a fault
    rng = random.Random(2026)
    codes = set()
    for fdoc in _fuzzed_fields(field, rng):
        g = write(tmp_path, "g.json", {"field": fdoc, "rows": rows})
        g1 = write(tmp_path, "g1.json", {"field": fdoc, "rows": [["1", "a"]]})
        g2 = write(tmp_path, "g2.json", {"field": fdoc, "rows": [["1", "a^4"]]})
        for argv in (["from-matrix", g], ["club-check", g],
                     ["evasive-check", g, "--k1", "1", "--h", "1"], ["search-x", g1, g2],
                     ["verify-free-product-rep", g, "--n1", "2", "--k1", "1"]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (fdoc, argv, code, err)
            assert code != 2 or err.startswith("error: "), (fdoc, argv, err)
            codes.add(code)
    assert 2 in codes and codes & {0, 1}  # some fields reach a verdict


def test_budget_vamos_guard(capsys, docs):
    assert main(["cyclic-flats", docs["u12"], "--budget", "vamos"]) == 2
    assert "builtin" in capsys.readouterr().err


def test_vamos_builtin_loads(capsys, docs):
    code, rep = run_json(capsys, ["cyclic-flats", docs["vamos"]])
    assert code == 0 and rep["count"] == 7


def test_output_is_deterministic(capsys, docs):
    outs = set()
    for _ in range(2):
        code, out = run(capsys, ["search-x", docs["g1"], docs["g2"],
                                 "--format", "json"])
        outs.add(out)
    assert len(outs) == 1


def test_modulus_override(capsys, docs, tmp_path):
    # same matrix under a non-primitive modulus still represents U_{1,2}
    g = write(tmp_path, "gm.json", {
        "field": {"q": 2, "m": 4, "modulus": [1, 1, 1, 1, 1]},
        "rows": [["1", "2"]]})
    code, rep = run_json(capsys, ["from-matrix", g])
    assert code == 0 and rep["rank"] == 1 and rep["n"] == 2
