"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_series_routes_never_read_the_table():
    # the series must not be computed from the table, or the agreement
    # the package checks becomes a tautology: the series-side modules may
    # neither import nor call the table's entry points
    table_names = {"dp_counts", "CountTable"}
    found = []
    for stem in ("kernel", "reverse", "series"):
        path = Path(skewdyck.__file__).parent / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for alias in node.names for n in (alias.name, alias.asname)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in table_names]
    assert not found, f"series-side modules use the counting table: {found}"


def test_no_costly_imports():
    # dataclasses pulls in inspect, and json is needed only where JSON is
    # written; either at module level would tax every command's start-up
    found = []
    for path in sorted(Path(skewdyck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_functions = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in (name.partition(".")[0] for name in names):
                if name == "dataclasses" or (name == "json" and id(node) not in in_functions):
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert not found, f"costly imports in the package: {found}"


def test_cli_import_skips_http_stack():
    # only an online `oeis` fetch needs urllib.request; every other
    # command would pay its import time at start-up
    code = "import skewdyck.cli, sys; print('urllib.request' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(skewdyck.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "False"


_LAYERS = [
    f"skewdyck.{path.stem}"
    for path in sorted(Path(skewdyck.__file__).parent.glob("*.py"))
    if path.stem not in ("__init__", "cli")
]

# (argv, modules the command must not load).  Each command imports only
# the layers on its own route; `-S` keeps site hooks out of the picture.
_IMPORT_VECTORS = {
    "help": (["--help"], [*_LAYERS, "fractions", "dataclasses", "json"]),
    "count": (
        ["count", "--n", "0:20"],
        ["skewdyck.series", "skewdyck.kernel", "skewdyck.paths", "fractions", "dataclasses"],
    ),
    "render": (
        ["render", "--n", "6"],
        ["skewdyck.series", "skewdyck.automaton", "skewdyck.kernel", "dataclasses"],
    ),
    "series": (
        ["series", "total", "--order", "16"],
        [
            "skewdyck.paths", "skewdyck.render", "skewdyck.verify", "skewdyck.oeis",
            "json", "dataclasses",
        ],
    ),
    "verify": (["verify", "--order", "16", "--t", "2"], ["dataclasses", "json"]),
    "oeis": (["oeis", "A007564", "--n-max", "3", "--offline", "--cache-dir", "{tmp}"], []),
}

_RUN_AND_LIST_MODULES = """
import contextlib, io, sys
from skewdyck import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code)
print("\\n".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("command", sorted(_IMPORT_VECTORS))
def test_command_imports_only_its_layers(command, tmp_path):
    argv, absent = _IMPORT_VECTORS[command]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(skewdyck.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_AND_LIST_MODULES, *argv],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out[0] == "0"
    loaded = set(out[1:])
    assert "urllib.request" not in loaded
    assert sorted(loaded.intersection(absent)) == []
