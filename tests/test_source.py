"""Checks on the package source itself."""

import ast
from pathlib import Path

import skewdyck


def test_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = []
    for path in sorted(Path(skewdyck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
