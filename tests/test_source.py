"""Checks on the library source itself."""

import ast
import inspect
from pathlib import Path

import qmatroids
from qmatroids.factorization import vamos_cyclic_flats_scan
from qmatroids.representation import search_x

SRC = Path(qmatroids.__file__).parent


def test_no_assert_statements_in_src():
    # assert vanishes under python -O; invariants raise InvariantError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_function_walks_the_hyperplanes():
    # the rank-axiom check and the cyclic-flat scan share one walk; a
    # second walk loop would sweep the same lattice twice
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "hyperplane_walk" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{path.name}:{fn.name}")
    assert callers == {"qmatroid.py:_rank_walk"}


def test_independence_check_runs_the_rank_walk():
    # the independence axioms are decided by the rank axioms of the rank
    # function the family generates; a pairwise sweep of members is the
    # test oracle, not a second checker
    tree = ast.parse((SRC / "qmatroid.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "check_independence_axioms")
    called = {getattr(node.func, "id", None) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert "_rank_walk" in called


def _imported(path):
    """The top-level names of the modules a module of src imports, with
    "." for the package's own modules."""
    names = set()
    for node in ast.walk(ast.parse((SRC / path).read_text(), filename=path)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." + (node.module or "") if node.level else (node.module or "").split(".")[0])
    return names


def test_no_module_starts_processes():
    # the coupling search and the Vámos scan each run on one process and
    # have no workers to set
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "multiprocessing" in _imported(path.name)] == []
    assert "workers" not in inspect.signature(vamos_cyclic_flats_scan).parameters
    assert "workers" not in inspect.signature(search_x).parameters


def test_search_reads_the_targets_flats():
    # the target of the coupling search is built from the cyclic flats
    # the verifier tests for; the formula sweep and a rank table of the
    # free product are the test oracles
    assert not _imported("representation.py") & {"multiprocessing", ".constructions"}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(_defined("representation.py", "search_x"))
              if isinstance(node, ast.Call)}
    assert "_free_product_flats" in called
    assert not called & {"free_product", "from_rank_table"}


def _compares_q_with_2(node):
    if not isinstance(node, ast.Compare) or not any(isinstance(op, ast.Eq) for op in node.ops):
        return False
    sides = [node.left, *node.comparators]
    is_q = [getattr(x, "id", getattr(x, "attr", None)) == "q" for x in sides]
    is_2 = [isinstance(x, ast.Constant) and x.value == 2 for x in sides]
    return any(is_q) and any(is_2)


def _scopes(path):
    """(name, node) for each function, Class.method and other top-level
    statement (named <module>) of a module of src."""
    scopes = []
    for node in ast.parse((SRC / path).read_text(), filename=path).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            scopes.append((node.name, node))
        else:
            scopes.append(("<module>", node))
    return scopes


def test_one_elimination_per_vector_format():
    # only the vector-format layer of subspace.py tells q = 2 apart, so
    # every lattice operation, extend included, runs on its kernels; and
    # gf's one elimination over field elements is span_rank
    branching = {name for name, scope in _scopes("subspace.py")
                 if any(_compares_q_with_2(node) for node in ast.walk(scope))}
    assert branching == {"_rref", "_reduce", "_nonzero", "_axpy", "_concat", "_split",
                         "pack_vector", "unpack_vector", "vector_index", "Subspace.elements"}
    gf = ast.parse((SRC / "gf.py").read_text())
    defined = {node.name for node in ast.walk(gf)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "span_rank" in defined and not defined & {"rref", "kernel"}


def _defined(path, name):
    """The function or Class.method called name in a module of src."""
    owner, _, attr = name.rpartition(".")
    body = ast.parse((SRC / path).read_text()).body
    if owner:
        body = next(node.body for node in body if isinstance(node, ast.ClassDef) and node.name == owner)
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == attr)


def test_flats_route_sweeps_no_lattice():
    # weak comparison, minors and the factorization's rebuild check read
    # cyclic flats at every size, and flatness and cyclicity the flats
    # where the rank formula is least; the lattice sweeps and the atom and
    # hyperplane streams are the test oracles
    for path, name in (("constructions.py", "weak_compare_identity"),
                       ("qmatroid.py", "QMatroid.minor_with_map"),
                       ("qmatroid.py", "QMatroid.is_flat"), ("qmatroid.py", "QMatroid._is_flat_in"),
                       ("qmatroid.py", "QMatroid.is_cyclic"),
                       ("factorization.py", "primary_factorization")):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(_defined(path, name)) if isinstance(node, ast.Call)}
        assert not called & {"enumerate_subspaces", "rank_tables_equal", "require_materialize_budget",
                             "atoms", "atom_vectors", "codim1_subspaces", "subspaces_of"}, name


def test_lattice_queries_read_the_inclusion_order():
    # loops, coloops, the lattice operations and the cyclic-flat check
    # read the order of the flats; the rank-oracle routes to them are the
    # test oracles
    tree = ast.parse((SRC / "qmatroid.py").read_text())
    lattice = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "CyclicFlatLattice")
    scopes = [_defined("qmatroid.py", name) for name in
              ("QMatroid.has_loops", "QMatroid.has_coloops", "check_cyclic_flat_axioms")]
    scopes += [fn for fn in lattice.body if isinstance(fn, ast.FunctionDef)]
    for fn in scopes:
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert not called & {"rank", "atoms", "atom_vectors", "codim1_subspaces",
                             "closure", "cyclic_core"}, fn.name
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"closure", "cyclic_core"}


def _reads(node, attr):
    return any(isinstance(x, ast.Attribute) and x.attr == attr and isinstance(x.ctx, ast.Load)
               for x in ast.walk(node))


def test_a_rank_table_answers_rank_queries_only():
    # the table is the rank oracle and the source of its own scan; every
    # construction reads certificates(), whatever the backing
    readers = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
               for name, scope in _scopes(path.name) if _reads(scope, "_table")}
    assert readers == {"qmatroid.py:QMatroid.__repr__", "qmatroid.py:QMatroid.rank",
                       "qmatroid.py:QMatroid.is_independent", "qmatroid.py:cyclic_flats_by_scan"}
    for path, name in (("qmatroid.py", "QMatroid.dual"), ("qmatroid.py", "phi_dual"),
                       ("qmatroid.py", "_dual_along"), ("qmatroid.py", "transport"),
                       ("qmatroid.py", "QMatroid.uniform_parameters"),
                       ("factorization.py", "primary_factorization")):
        fn = _defined(path, name)
        assert not _reads(fn, "_table") and not _reads(fn, "_certs"), name
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "as_cyclic_flat_backed" not in text and "_scanned" not in text, path.name


def test_representation_reads_the_projective_line_once():
    # evasivity reads the linear-set profile and the q-matroid of a matrix
    # the image table; the functional loop and the combination per basis
    # row are the test oracles, and the base field is always the prime of
    # the matrix's field
    for name, wanted, banned in (("is_evasive", "linear_set_profile", "span_rank"),
                                 ("qmatroid_from_matrix", "_image_table", "_combine")):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(_defined("representation.py", name))
                  if isinstance(node, ast.Call)}
        assert wanted in called and banned not in called, name
    takes_q = [name for name, scope in _scopes("representation.py")
               if isinstance(scope, ast.FunctionDef) and not name.rpartition(".")[2].startswith("_")
               and "q" in {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}]
    assert takes_q == []


def test_a_fields_order_picks_its_arithmetic():
    # GF(q^1) is the one prime field, and whether the modulus is primitive
    # decides how elements print, not whether the field has log tables
    tree = ast.parse((SRC / "gf.py").read_text())
    fields = [node.name for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name.endswith("Field")]
    assert fields == ["ExtField"]
    for node in ast.walk(_defined("gf.py", "ExtField.__init__")):
        if isinstance(node, ast.If) and any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_build_tables"
                                            for n in ast.walk(node)):
            assert "is_primitive" not in {getattr(n, "attr", None) for n in ast.walk(node.test)}
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "representation.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "gf" for alias in node.names}
    assert {name for name in imported if name.endswith("Field")} == {"ExtField"}


def test_one_irreducibility_test_and_one_modulus_source():
    # trial division decides irreducibility, and Rabin's test with its
    # polynomial helpers is the test oracle; a matrix document is the one
    # source of a field's modulus, and ExtField its one check
    defined = {name for name, _ in _scopes("gf.py")}
    assert not defined & {"is_irreducible", "poly_pow_mod", "poly_gcd", "poly_sub", "poly_add"}
    for name in ("ExtField.__init__", "find_irreducible"):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(_defined("gf.py", name)) if isinstance(node, ast.Call)}
        assert "smallest_factor" in called, name
    cli = (SRC / "cli.py").read_text()
    assert "--modulus" not in cli and "_parse_modulus" not in cli
