"""Source hygiene: every name a module of sdga or of its tests imports is
used there, every private module-level function or class, and every private
method of one, is used somewhere in sdga, and every public one is used in
sdga, is a command's handler, or is named in LIBRARY_API with its reason.
A method is used only where sdga reads it as an attribute (x.name), so a
local variable of the same name does not count.

A deletion that leaves its import or its helper behind fails here, and so
does a test fixture or second route added to the library.  Names a module
lists in `__all__` are its exports and count as used.  A name a module of
sdga assigns at module level, `__all__` and `__version__` aside, must be
read somewhere in sdga: an alias or a constant nothing reads fails here.
So must every attribute a method assigns as self.x, unless UNREAD_ATTRIBUTES
lists it with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sdga"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

# Public definitions and methods that no code in sdga names, each kept for a
# reason.
LIBRARY_API = {
    "dg.KahlerModule": "the paper's module of Kahler differentials and its universal derivation",
    "dg.SquareZeroExtension": "the paper's square-zero extension: sections are derivations",
    "dg.KahlerModule.universal": "the universal derivation into Omega^1",
    "dg.KahlerModule.universal_factorization": "the module map a derivation factors through",
    "dg.SquareZeroExtension.derivation_to_section": "a derivation as an algebra section",
    "dg.SquareZeroExtension.section_to_derivation": "an algebra section as a derivation",
    "dg.SquareZeroExtension.section_defect": "a section's multiplicativity, as a checkable defect",
    "dg.CohomologyReport.representatives": "the printed representatives at one bidegree",
    "dg.CohomologyReport.exact": "whether one bidegree's dimension is exact, not a bound",
    "dg.Derivation.scale": "a derivation times a scalar, as the bracket identities need",
    "dg.euler_derivation": "the weight Euler derivation, whose bracket with d is d",
    "forms.FormsAlgebra.total_dga": "the forms algebra with the total differential",
    "forms.FormsAlgebra.restricts_to_base": "L_D restricts to D on the base, as a check",
    "forms.Cylinder.end_map": "evaluation at an end of the cylinder",
    "model.Complex.total_dim": "the dimension of the whole complex",
    "linalg.quotient_representatives": "the rows independent modulo a span: the reference"
                                       " the image-end picks of cohomology and factorize are"
                                       " tested against, and perfbench/tracer.py binds it",
    "dg.leibniz_defect": "the super-Leibniz identity of a derivation, as a checkable defect",
    "forms.homotopy_from_cylinder_map": "the paper's chain homotopy from a map into A[t, dt]",
    "model.direct_sum": "the coproduct of complexes with its two inclusions",
    "model.identity_chain_map": "the identity morphism of the category of complexes",
    "model.zero_chain_map": "the zero morphism of the category of complexes",
    "model.sphere_to_disk": "the generating cofibrations S(n) -> D(n)",
    "model.zero_to_disk": "the generating acyclic cofibrations 0 -> D(n)",
    "model.is_acyclic": "acyclicity: the complex is weakly equivalent to zero",
    "simplicial.face_pullback": "the cosimplicial face maps of Omega_n",
    "simplicial.whitney_differential_identity": "the identity d w_I = sum_i w_{iI}",
    "simplicial.elementary_subcomplex": "the span of the Whitney forms as a subcomplex",
    "simplicial.simplicial_coboundary": "the simplicial cochains the elementary subcomplex matches",
    "simplicial.dupont_defect": "Dupont's identity d s + s d = id - P, as a checkable defect",
    "simplicial.poincare_defect": "the Poincare lemma on the simplex, as a checkable defect",
    "simplicial.dilation": "the straight-line pullback toward a vertex, which"
                           " dilation_homotopy_oracle checks the closed form against",
    "simplicial.SimplexForms.vertex_value": "evaluation of a form's function part at a vertex",
    "simplicial.SubShapeCotensor.dimension": "the cotensor's dimension at one bidegree",
    "simplicial.SubShapeCotensor.basis": "the compatible families as lists of facet components",
}


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


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_imports_in_tests(module):
    assert unused_imports((TESTS / module).read_text()) == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom .core import a, b as c\n__all__ = ['c']\n"
              "def f(x: int) -> int:\n    return a\n")
    assert unused_imports(source) == ["os"]
    assert unused_imports(source.replace("return a", "return os.sep")) == ["a"]


def _names(tree: ast.AST) -> Counter:
    """How often each name occurs in tree, as a name, an attribute or an
    imported name."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
    return found


def _attributes(tree: ast.AST) -> Counter:
    """How often each name is read as an attribute in tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _definitions(tree: ast.Module):
    """(name, node) for each module-level function or class, and
    (Class.name, node) for each method of such a class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{node.name}.{item.name}", item


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level function or class, and
    module.Class.name for each method of one, that no module references
    outside the definition itself.  The scan goes by name: a module-level
    definition is referenced by any name, attribute or import of its name,
    and a method only by an attribute read of its name anywhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names = sum(map(_names, trees.values()), Counter())
    attributes = sum(map(_attributes, trees.values()), Counter())

    def unreferenced(qualified: str, node) -> bool:
        scan, everywhere = (_attributes, attributes) if "." in qualified else (_names, names)
        return everywhere[node.name] == scan(node)[node.name]

    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name, node in _definitions(tree)
                  if not node.name.startswith("__") and unreferenced(name, node))


def _private(qualified: str) -> bool:
    return any(part.startswith("_") for part in qualified.split(".")[1:])


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    return [name for name in unreferenced_definitions(sources) if _private(name)]


def command_handlers(source: str) -> set[str]:
    """cmd_<words> for each row of the module's COMMANDS table, spaces and
    dashes turned into "_", as the CLI looks its handlers up."""
    handlers = set()
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets)):
            for row in node.value.elts:
                words = row.elts[0].value
                handlers.add("cmd_" + words.replace(" ", "_").replace("-", "_"))
    return handlers


def unlisted_public_definitions(sources: dict[str, str], api: dict[str, str]) -> list[str]:
    """module.name for each public module-level function or class that no
    module references, that is not a handler a cli.COMMANDS row names, and
    that api does not list."""
    handlers = {f"cli.{h}" for h in command_handlers(sources.get("cli", ""))}
    return [name for name in unreferenced_definitions(sources)
            if not _private(name) and name not in handlers and name not in api]


def stale_api_entries(sources: dict[str, str], api: dict[str, str]) -> list[str]:
    """The api entries that name no module-level function or class and no
    method of one."""
    defined = {f"{module}.{name}" for module, source in sources.items()
               for name, _ in _definitions(ast.parse(source))}
    return sorted(set(api) - defined)


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


def test_every_public_definition_is_used_or_listed():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    unlisted = unlisted_public_definitions(sources, LIBRARY_API)
    assert (unlisted, stale_api_entries(sources, LIBRARY_API)) == ([], [])


def test_scan_sees_an_unlisted_public_definition():
    sources = {
        "a": ("def unused():\n    pass\n"
              "def shared():\n    pass\n"
              "class Listed:\n    pass\n"),
        "b": "from .a import shared\n",
        "cli": ("COMMANDS = ((\"sym-kunneth\", \"help\", []), (\"complex lift\", \"\", [_N]))\n"
                "def cmd_sym_kunneth(args):\n    pass\n"
                "def cmd_complex_lift(args):\n    pass\n"
                "def cmd_orphan(args):\n    pass\n"),
    }
    api = {"a.Listed": "a reason"}
    # a reference from another module, a listing and a named handler each do
    assert unlisted_public_definitions(sources, api) == ["a.unused", "cli.cmd_orphan"]
    assert stale_api_entries(sources, api) == []
    api["a.gone"] = "a reason"
    api["b.shared"] = "defined in a, not in b"
    assert stale_api_entries(sources, api) == ["a.gone", "b.shared"]


def test_scan_sees_an_unlisted_public_method():
    sources = {
        "a": ("class Span:\n"
              "    def add(self, row):\n        return self.reduce(row)\n"
              "    def reduce(self, row):\n        return row\n"
              "    def dim(self):\n        return self.dim()\n"
              "    def rank(self):\n        return 0\n"
              "    def _spare(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "class _Hidden:\n    def grow(self):\n        pass\n"),
        "b": "from .a import Span, _Hidden\nrank = Span().add({})\nprint(rank)\n",
    }
    # a call from another method or module counts, recursion does not, nor
    # does a variable of the same name; a dunder is not scanned,
    # and a method of a private class is private
    assert unlisted_public_definitions(sources, {}) == ["a.Span.dim", "a.Span.rank"]
    assert unreferenced_private_definitions(sources) == ["a.Span._spare", "a._Hidden.grow"]
    api = {"a.Span.dim": "a reason", "a.Span.rank": "a reason"}
    assert unlisted_public_definitions(sources, api) == []
    api["a.Span.gone"] = "a reason"
    assert stale_api_entries(sources, api) == ["a.Span.gone"]


def unread_assignments(sources: dict[str, str]) -> list[str]:
    """module.name for each name a module assigns at module level that no
    module reads, as a name, an attribute or an imported name;
    `__all__` and `__version__` are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assigned = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                assigned += [(module, t.id) for t in names if isinstance(t, ast.Name)]
    return sorted(f"{module}.{name}" for module, name in assigned
                  if name not in read and name not in ("__all__", "__version__"))


def test_no_unread_module_assignments():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_assignments(sources) == []


def test_scan_sees_an_unread_assignment():
    sources = {
        "a": ("__version__ = '1'\n__all__ = ['f']\n"
              "Alias = int\nLIMIT: int = 3\nX, Y = 1, 2\nSHARED = 4\nTYPED = dict\n"
              "def f(n: TYPED) -> int:\n    return n + Y\n"),
        "b": "from .a import SHARED\nprint(SHARED)\n",
    }
    # a read in any module counts, and so does an annotation
    assert unread_assignments(sources) == ["a.Alias", "a.LIMIT", "a.X"]
    sources["b"] += "print(a.LIMIT)\n"
    assert unread_assignments(sources) == ["a.Alias", "a.X"]


# Attributes that sdga assigns as self.x and never reads as .x, each kept
# for a reason.
UNREAD_ATTRIBUTES = {
    "simplicial.SimplexForms._s_cache": "perfbench/tracer.py reads every _*_cache",
    "simplicial.SimplexForms._p_cache": "perfbench/tracer.py reads every _*_cache",
    "simplicial.SubShapeCotensor.coefficients": "library API: the coefficient algebra B",
    "simplicial.TensorForms.forms": "library API: the Omega_n factor of B tensor Omega_n,"
                                    " which the tests build forms and oracles on",
}


def self_assignments(tree: ast.Module):
    """(Class.x, node) for each self.x that a method of a module-level class
    assigns."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        yield f"{cls.name}.{t.attr}", t


def unread_attributes(sources: dict[str, str], listed: dict[str, str]) -> list[str]:
    """module.Class.x for each attribute a method assigns as self.x that no
    module reads as .x and that listed does not name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum(map(_attributes, trees.values()), Counter())
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name, node in self_assignments(tree)
                  if not read[node.attr] and f"{module}.{name}" not in listed)


def stale_attribute_entries(sources: dict[str, str], listed: dict[str, str]) -> list[str]:
    """The listed entries that name no self.x assignment."""
    assigned = {f"{module}.{name}" for module, source in sources.items()
                for name, _ in self_assignments(ast.parse(source))}
    return sorted(set(listed) - assigned)


def test_every_assigned_attribute_is_read_or_listed():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert (unread_attributes(sources, UNREAD_ATTRIBUTES),
            stale_attribute_entries(sources, UNREAD_ATTRIBUTES)) == ([], [])


def test_scan_sees_an_unread_attribute():
    sources = {
        "a": ("class Box:\n"
              "    def __init__(self, x):\n"
              "        self.x, self.y = x, 0\n"
              "        self.kept: int = 1\n"
              "        self.spare = self.x\n"
              "        spare = 2\n"
              "def f(box):\n    return box.y\n"),
        "b": "from .a import Box\nprint(Box(1).kept)\n",
    }
    # a read in any module counts, a store or a local of the same name does not
    assert unread_attributes(sources, {}) == ["a.Box.spare"]
    listed = {"a.Box.spare": "a reason"}
    assert unread_attributes(sources, listed) == []
    assert stale_attribute_entries(sources, listed) == []
    listed["a.Box.gone"] = "a reason"
    assert stale_attribute_entries(sources, listed) == ["a.Box.gone"]
