"""Checks on the library source itself."""

import ast
import inspect
from pathlib import Path

import qmatroids
from qmatroids.factorization import vamos_cyclic_flats_scan

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


def test_one_module_starts_processes():
    # the coupling search keeps the one process pool; the Vámos scan is
    # the rank walk on one process and has no workers to set
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                importers.add(path.name)
    assert importers == {"representation.py"}
    assert "workers" not in inspect.signature(vamos_cyclic_flats_scan).parameters
