"""Soundness guards must be real exceptions: python -O strips `assert`
statements, so none may appear in the package.  An explicit
`raise AssertionError(...)` for unreachable branches is allowed."""

import ast
from pathlib import Path

import laurentdecide


def test_package_has_no_assert_statements():
    package = Path(laurentdecide.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert statements: {found}"
