"""Invariants in the package are explicit errors: `assert` vanishes under -O."""

import ast
from pathlib import Path

import volnet

SRC = Path(volnet.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
