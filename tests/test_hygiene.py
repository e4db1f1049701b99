"""Source hygiene: every name a module of sdga imports is used there, and
every private module-level function or class is used somewhere in sdga.

A deletion that leaves its import or its helper behind fails here.  Names a
module lists in `__all__` are its exports and count as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sdga"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - _exported(tree))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom .core import a, b as c\n__all__ = ['c']\n"
              "def f(x: int) -> int:\n    return a\n")
    assert unused_imports(source) == ["os"]
    assert unused_imports(source.replace("return a", "return os.sep")) == ["a"]


def _references(tree: ast.AST, name: str, skip: ast.AST) -> bool:
    """Whether tree names `name` anywhere outside the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level `_name` function or class that no
    module references outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(_references(other, node.name, node)
                                for other in trees.values())):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_no_unreferenced_private_definitions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def test_scan_sees_an_unreferenced_private_definition():
    sources = {
        "a": ("def _helper(x):\n    return _helper(x - 1) if x else 0\n"
              "class _Unused:\n    pass\n"
              "def _shared():\n    pass\n"
              "def public():\n    return 1\n"),
        "b": "from .a import _shared as s\n",
    }
    # recursion is no use, an import is, and public names are not scanned
    assert unreferenced_private_definitions(sources) == ["a._Unused", "a._helper"]
    sources["b"] += "def g():\n    return a._helper(2)\n"
    assert unreferenced_private_definitions(sources) == ["a._Unused"]
