"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def _fractions_imports(node, scope):
    """The scopes, as dotted names, of each import of `fractions` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _fractions_imports(child, f"{scope}.{child.name}")
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in child.names] if isinstance(child, ast.Import) else [child.module or ""]
            if any(name.split(".")[0] == "fractions" for name in names):
                yield scope
        else:
            yield from _fractions_imports(child, scope)


def test_fractions_is_imported_only_by_series_coeffs():
    # an int or an integer pair is the package's one exact scalar; the
    # `Fraction`s that `Series.coeffs` hands out are its only ones
    found = []
    for path in sorted(Path(skewdyck.__file__).parent.glob("*.py")):
        found += _fractions_imports(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == ["series.Series.coeffs"]


def test_benchmark_trace_names_series_methods():
    # the benchmark's layer trace wraps `Series` methods by name and reads
    # `coeffs` for the coefficient bit sizes; a method it names that is
    # gone would fail only a traced run, so it fails here.  The trace is
    # read, not imported.
    from skewdyck.series import Series

    path = Path(__file__).parents[1] / "bench" / "layertrace.py"
    tree = ast.parse(path.read_text(), str(path))
    [names] = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SERIES_METHODS"]
    ]
    assert names and [name for name in names if name not in Series.__dict__] == []
    assert "coeffs" in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert isinstance(Series.__dict__["coeffs"], property)


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


def test_one_path_to_a_kernel_root():
    # every root is expanded by `kernel.series_root`: it is the package's
    # only call of `series.newton_root`, and no module but the kernel
    # calls `substituted` (a module-level call counts as `<module>`).
    # One engine, `_solve_ints`, expands every series root, reciprocal
    # and square root, so a series has one way to be expanded: it has
    # exactly these three callers, and no separate reciprocal or
    # square-root loop is defined.
    callers = {"newton_root": [], "substituted": [], "_solve_ints": []}
    defined = set()
    for path in sorted(Path(skewdyck.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            scopes = [(getattr(top, "name", "<module>"), top)]
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
            for scope, body in scopes:
                for node in ast.walk(body):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.add(node.name)
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = getattr(func, "id", None) or getattr(func, "attr", None)
                        if name in callers:
                            callers[name].append(f"{path.stem}.{scope}")
    assert callers["newton_root"] == ["kernel.series_root"]
    assert {caller.partition(".")[0] for caller in callers["substituted"]} == {"kernel"}
    assert sorted(callers["_solve_ints"]) == [
        "series.Series.reciprocal", "series.Series.sqrt", "series.newton_root",
    ]
    assert not defined & {"_reciprocal_ints", "_inverse_sqrt_ints"}


def package_imports(stem):
    # the modules the package module `stem` imports, with the package's own
    # named `skewdyck.<module>`
    path = Path(skewdyck.__file__).parent / f"{stem}.py"
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "skewdyck." + base if base else "skewdyck"
            if base == "skewdyck":
                used |= {f"skewdyck.{alias.name}" for alias in node.names}
            else:
                used.add(base)
    return {name for name in used if name.partition(".")[0] == "skewdyck"}


def test_r_route_imports_only_the_series():
    # R is a route of its own: closed_form builds on the series engine and
    # reads neither the table nor the kernel it is compared with
    assert package_imports("closed_form") == {"skewdyck.series"}


def test_kernel_route_imports_only_the_series():
    # the kernel route names a layer by its letter, as the table does, and
    # imports nothing of the table's: `series g0` and its kin load no table
    # code, and the kernel can share no fault with the table it is checked
    # against
    assert package_imports("kernel") == {"skewdyck.series"}


def test_enumeration_route_imports_no_other_layer():
    # the walk is the enumeration route: were it built from the table or
    # the series, `verify`'s enumeration-vs-table check would compare a
    # route with itself
    assert package_imports("paths") == set()


def test_table_route_imports_no_other_layer():
    # the counting table is the oracle every series is measured against:
    # were it to import the series engine, a table and a series could
    # share a fault
    assert package_imports("automaton") == set()


def test_verify_builds_its_tables_in_one_place():
    # one table per t and direction serves every row of a run, so a cell
    # bumped in it reaches every row that reads it: in `verify`, only
    # `_checks` names `dp_counts` (besides the import), so the layer
    # equations and the level recurrence check the table they are handed
    pkg = Path(skewdyck.__file__).parent
    named = []
    for top in ast.parse((pkg / "verify.py").read_text()).body:
        if not isinstance(top, (ast.Import, ast.ImportFrom)):
            hits = [n for n in ast.walk(top) if isinstance(n, ast.Name) and n.id == "dp_counts"]
            named += [f"{getattr(top, 'name', '<module>')}:{n.lineno}" for n in hits]
    assert named and {where.partition(":")[0] for where in named} == {"_checks"}


def test_layer_equations_stay_apart_from_the_edge_list():
    # the layer equations are written from the paper, so that they check
    # the edge list rather than restate it: `verify` imports and reads no
    # private name of `automaton` (such as `_lr_edges`, `_arcs`, `_SCANS`
    # or `_plan`), and `automaton` holds the table route alone, none of
    # the relations the table is measured against
    pkg = Path(skewdyck.__file__).parent
    private = []
    for node in ast.walk(ast.parse((pkg / "verify.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("automaton", "skewdyck.automaton"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "automaton":
            private += [node.attr] if node.attr.startswith("_") else []
    assert not private, f"verify reads automaton's private names: {private}"
    # every name `automaton` binds: a definition, an import or an assignment
    tree = ast.parse((pkg / "automaton.py").read_text())
    bound = {getattr(n, "asname", None) or getattr(n, "name", None) for n in ast.walk(tree)}
    bound |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert not bound & {"first_violation", "_equations", "verify_functional_equations"}


def test_every_public_function_has_a_caller():
    # code that nothing in the package calls is dead weight: every public
    # top-level function or class must be named somewhere in the package
    # outside its own definition.  A bare name counts in its own module, an
    # import counts for the module it imports from, and `module.name` for
    # that module.  A public method or property of a public class counts as
    # called when its name appears as an attribute outside its own body.
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(skewdyck.__file__).parent.glob("*.py"))
    }

    def references(stem, node):
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                yield f"{stem}.{inner.id}"
            elif isinstance(inner, ast.ImportFrom) and inner.level == 1 and inner.module:
                yield from (f"{inner.module}.{alias.name}" for alias in inner.names)
            elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
                yield f"{inner.value.id}.{inner.attr}"

    def attributes(node):
        return [inner.attr for inner in ast.walk(node) if isinstance(inner, ast.Attribute)]

    uses = Counter(ref for stem, tree in trees.items() for ref in references(stem, tree))
    attribute_uses = Counter(attr for tree in trees.values() for attr in attributes(tree))
    dead = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = f"{stem}.{node.name}"
            own = sum(ref == name for ref in references(stem, node))
            if uses[name] == own:
                dead.append(name)
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                        own = attributes(meth).count(meth.name)
                        if attribute_uses[meth.name] == own:
                            dead.append(f"{name}.{meth.name}")
    # `Series.coeffs` hands the coefficients out as Fractions.  The package
    # prints and writes JSON from the stored integers, so its readers are
    # outside the package: the series tests and the benchmark's layer trace
    # (bench/layertrace.py), which reads it for the coefficient bit sizes.
    read_outside = {"series.Series.coeffs"}
    assert sorted(set(dead) - read_outside) == []


def test_library_defaults_are_used():
    # a default is a decision; the CLI owns the ones a user sees.  In the
    # numeric layers, a defaulted parameter that every package call passes
    # is a dead default, and one that no call passes is a constant in
    # disguise.  A call through *args or **kwargs passes every parameter.
    pkg = Path(skewdyck.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(pkg.glob("*.py"))}
    defaulted = {}  # "module.function" -> (positional parameter names, defaulted names)
    for stem in ("series", "kernel", "reverse", "closed_form", "automaton", "paths", "render", "oeis", "verify"):
        for node in trees[stem].body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                names = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                if names:
                    defaulted[f"{stem}.{node.name}"] = (positional, names)

    passed = {name: [] for name in defaulted}  # one set of passed names per call
    for stem, tree in trees.items():
        # a bare name resolves to its own module or to the module it is imported from
        local = {node.name: stem for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                local.update((alias.asname or alias.name, node.module) for alias in node.names)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in local:
                name = f"{local[func.id]}.{func.id}"
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = f"{func.value.id}.{func.attr}"
            else:
                continue
            if name not in defaulted:
                continue
            positional, names = defaulted[name]
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            given = set(names) if spread else set(positional[: len(call.args)])
            passed[name].append(given | {k.arg for k in call.keywords})

    unused = []
    for name, (_, names) in defaulted.items():
        for param in names:
            hits = sum(param in given for given in passed[name])
            if hits == len(passed[name]):
                unused.append(f"{name}({param}=...) passed by every call")
            elif hits == 0:
                unused.append(f"{name}({param}=...) never passed")
    assert not unused, f"library defaults no call relies on: {unused}"


def test_one_process_exit():
    # `cli.run` is the package's only way to end the process without the
    # interpreter's teardown, so the conditions under which that is safe
    # are decided in one place
    found = []
    for path in sorted(Path(skewdyck.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name == "_exit":
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert found == ["cli.run"]


def test_no_costly_imports():
    # dataclasses pulls in inspect, and json is needed only where JSON is
    # written; either at module level would tax every command's start-up.
    # typing, enum and functools are imported nowhere: a step is its
    # letter and a record a plain tuple or a `collections.namedtuple`, and
    # this holds whatever modules a host's `site` happens to preload
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
                if name in ("dataclasses", "typing", "enum", "functools") or (
                    name == "json" and id(node) not in in_functions
                ):
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
# the layers on its own route, and a well-formed command needs no
# argparse, which only help and usage errors load; `-S` keeps site hooks
# out of the picture.  No command loads `typing`, and one that loads no
# `json` or `re` loads no `enum` or `functools` either: a step is its
# letter and a record a plain tuple or a `collections.namedtuple`.
_IMPORT_VECTORS = {
    "help": (["--help"], [*_LAYERS, "fractions", "dataclasses", "json", "typing"]),
    # the table and the CLI need no `collections` at all
    "count": (
        ["count", "--n", "0:20"],
        [
            "skewdyck.series", "skewdyck.kernel", "skewdyck.paths", "fractions", "dataclasses",
            "argparse", "typing", "enum", "functools", "collections",
        ],
    ),
    # the JSON table is written without the json module
    "count-json": (
        ["count", "--n", "0:20", "--format", "json"],
        [
            "skewdyck.series", "skewdyck.kernel", "skewdyck.paths", "fractions", "dataclasses",
            "json", "argparse", "typing", "enum", "functools", "collections",
        ],
    ),
    "render": (
        ["render", "--n", "6"],
        [
            "skewdyck.series", "skewdyck.automaton", "skewdyck.kernel",
            "dataclasses", "fractions", "typing", "json", "argparse", "enum", "functools",
            "collections",
        ],
    ),
    # a series selector loads its own route only, and printing a series
    # reads its integers, so text output needs no `fractions`
    "series": (
        ["series", "total", "--order", "16"],
        [
            "skewdyck.paths", "skewdyck.render", "skewdyck.verify", "skewdyck.oeis",
            "skewdyck.reverse", "skewdyck.closed_form", "skewdyck.automaton",
            "fractions", "json", "dataclasses", "argparse", "typing", "enum", "functools",
        ],
    ),
    # JSON output is written from the stored integers too
    "series-json": (
        ["series", "total", "--order", "16", "--format", "json"],
        [
            "skewdyck.reverse", "skewdyck.closed_form", "skewdyck.automaton", "skewdyck.paths",
            "fractions", "decimal", "numbers", "argparse", "typing",
        ],
    ),
    "series-R": (
        ["series", "R", "--order", "16"],
        [
            "skewdyck.kernel", "skewdyck.reverse", "skewdyck.automaton", "skewdyck.paths",
            "fractions", "json", "argparse", "typing", "enum", "functools",
        ],
    ),
    "series-prefix": (
        ["series", "prefix:G:4", "--order", "16"],
        [
            "skewdyck.reverse", "skewdyck.closed_form", "skewdyck.automaton", "skewdyck.paths",
            "fractions", "json", "argparse", "typing", "enum", "functools",
        ],
    ),
    # the s1 seed and published values are integer pairs, read without `fractions`
    "series-s1": (
        ["series", "s1", "--order", "16"],
        [
            "skewdyck.closed_form", "skewdyck.automaton", "skewdyck.paths", "skewdyck.verify",
            "fractions", "decimal", "numbers", "json", "argparse", "typing", "enum", "functools",
        ],
    ),
    # every comparison reads integer numerators over a common denominator
    "verify": (
        ["verify", "--order", "16", "--t", "2"],
        [
            "dataclasses", "json", "argparse", "fractions", "decimal", "numbers",
            "typing", "enum", "functools",
        ],
    ),
    # R is read as integers, from the stored numerators; the bundled
    # snapshot is read beside the module, without `importlib.resources`
    "oeis": (
        ["oeis", "A007564", "--n-max", "3", "--offline", "--cache-dir", "{tmp}"],
        ["argparse", "fractions", "decimal", "numbers", "typing"],
    ),
}

# stdout is swapped by hand: `contextlib` would load `functools` and `collections`
_RUN_AND_LIST_MODULES = """
import io, sys
from skewdyck import cli
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    sys.stdout = stdout
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
