"""Source hygiene: every name a module of sdga imports is used there.

A deletion that leaves its import behind fails here.  Names a module lists
in `__all__` are its exports and count as used.
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
