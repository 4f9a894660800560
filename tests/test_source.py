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


def test_no_floats_in_series():
    # the series engine is exact: no float literal and no float() call
    path = Path(skewdyck.__file__).parent / "series.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"line {node.lineno}: float() call")
    assert not found, f"floats in series.py: {found}"
