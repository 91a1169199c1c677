"""Checks on the library source itself."""

import ast
from pathlib import Path

import qmatroids

SRC = Path(qmatroids.__file__).parent


def test_no_assert_statements_in_src():
    # assert vanishes under python -O; invariants raise InvariantError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
