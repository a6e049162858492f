"""Module boundaries inside the package: no module imports an
underscore-prefixed (private) name from a sibling module."""

import ast
from pathlib import Path

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
