"""Imports of the package: every imported name is used, and only `grid`
imports the transforms."""

import ast
from pathlib import Path

import pytest

import mchb

PACKAGE = Path(mchb.__file__).parent
# the package's __init__ imports are its public names, not uses
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names never loaded in ``source``, except ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        ["os (line 1)"]
    assert unused_imports("from x import a  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_module(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            return True
        if isinstance(node, ast.Import) and any(
                alias.name == module for alias in node.names):
            return True
    return False


def test_only_grid_imports_the_transforms():
    # every exact solve changes basis through grid.eigenbasis
    assert [p.name for p in MODULES
            if imports_module(p.read_text(), "scipy.fft")] == ["grid.py"]


REPO = Path(__file__).resolve().parents[1]
# the documented I/O round trip: each reads back what the package writes
TEST_ONLY_ALLOWED = {"io_formats.read_csv_report", "parameters.serialize_config"}


def referenced_names(sources) -> set[str]:
    """Names loaded, attributes read and names imported in ``sources``."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def public_defs(body, prefix: str):
    """``(qualified name, node)`` of the public functions and classes in
    ``body`` and, inside each class, of its public methods and properties."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from public_defs(node.body, f"{prefix}.{node.name}")


def unreferenced_public_names(modules: dict[str, str], users) -> list[str]:
    """Public names of ``modules`` (name to source), as ``public_defs`` finds
    them, that no source in ``users`` references."""
    used = referenced_names(users)
    return [qualified for name, source in modules.items()
            for qualified, node in public_defs(ast.parse(source).body, name)
            if node.name not in used]


def test_the_guard_sees_a_test_only_name():
    mod = "def used():\n    pass\n\ndef unused():\n    return used()\n"
    assert unreferenced_public_names({"m": mod}, [mod]) == ["m.unused"]
    assert unreferenced_public_names({"m": mod}, [mod, "m.unused()"]) == []
    cls = ("class C:\n    @property\n    def p(self):\n        pass\n\n"
           "    def _q(self):\n        pass\n\nC().x\n")
    assert unreferenced_public_names({"m": cls}, [cls]) == ["m.C.p"]
    assert unreferenced_public_names({"m": cls}, [cls, "c.p"]) == []


def test_no_public_name_only_the_tests_use():
    # the package itself, the tools and the benchmark harness count as
    # users; the tests and the package's __init__ re-exports do not
    users = [p.read_text() for p in MODULES]
    users += [p.read_text() for folder in ("tools", "perfbench")
              for p in sorted((REPO / folder).glob("*.py"))
              if not p.name.startswith("test_")]
    found = unreferenced_public_names(
        {p.stem: p.read_text() for p in MODULES}, users)
    assert [name for name in found if name not in TEST_ONLY_ALLOWED] == []
