"""Module boundaries inside the package: no module imports an
underscore-prefixed (private) name from a sibling module, every
exported name has a caller inside the package, only cli builds
output formats, every argument check outside cli raises UsageError, and
the acceptance run and the lemma battery import neither numpy.random nor
numpy.ma."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ostrowski

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ostrowski"


def _private_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ostrowski")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in _private_imports(path)] == []


MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} | {"ostrowski"}


def _reached(path):
    """(name, owner) for every package name that `path` reaches: a bare
    name, a name imported from the package, or module.name; owner is the
    top-level def or class the reference sits in."""
    tree = ast.parse(path.read_text(), str(path))
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((node.id, owner))
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "ostrowski"):
                out.update((alias.name, owner) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                out.add((node.attr, owner))
    return out


def test_every_exported_name_has_a_caller_besides_the_tests():
    # a caller is another definition in the package (not __init__.py); a name
    # that only the benchmark harness or the tests reach stays in its module
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert len(sources) > 5
    called = {name for path in sources for name, owner in _reached(path) if name != owner}
    assert [name for name in ostrowski.__all__ if name not in called] == []


def test_library_results_build_no_output_format():
    # the JSON and CSV forms of equidist's and expsum's results live in cli
    formats = {"csv_rows", "json_records", "to_json_dict"}
    hits = [
        f"{name}.py: {node.name}.{item.name}"
        for name in ("equidist", "expsum")
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in formats
    ]
    assert hits == []


def test_no_module_but_cli_raises_a_bare_value_error():
    # bad input raises budget.UsageError (or BudgetError); cli maps both to exit 2
    def is_value_error(exc):
        return isinstance(exc, ast.Name) and exc.id == "ValueError" or (
            isinstance(exc, ast.Call) and is_value_error(exc.func))

    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and is_value_error(node.exc)
    ]
    assert hits == []


def test_verify_quick_and_lemmas_import_neither_numpy_random_nor_numpy_ma():
    # a fresh interpreter, since the test session itself imports both
    script = (
        "import contextlib, io, sys\n"
        "from ostrowski import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run(['verify', '--quick']), cli.run(['lemmas'])]\n"
        "print(codes, sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] []"


def test_partial_quotients_have_one_owner():
    # a_i is stated once, in AlphaParams.partial_quotient: digits.py reads no
    # attribute named m, and every q_sequence call in the package passes the
    # system rather than x.m, a name m or an integer literal
    def passes_m(arg):
        return (isinstance(arg, ast.Attribute) and arg.attr == "m"
                or isinstance(arg, ast.Name) and arg.id == "m"
                or isinstance(arg, ast.Constant) and isinstance(arg.value, int))

    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    calls = [(name, node) for name, node in nodes if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "q_sequence"]
    assert len(calls) > 10
    assert [f"{name}:{node.lineno}" for name, node in calls
            if any(map(passes_m, node.args[:1]))] == []
    assert [f"digits.py:{node.lineno}" for node in ast.walk(trees["digits.py"])
            if isinstance(node, ast.Attribute) and node.attr == "m"] == []
    defs = [node for _, node in nodes
            if isinstance(node, ast.FunctionDef) and node.name == "partial_quotient"]
    methods = [item for _, node in nodes
               if isinstance(node, ast.ClassDef) and node.name == "AlphaParams"
               for item in node.body]
    assert len(defs) == 1 and defs[0] in methods
