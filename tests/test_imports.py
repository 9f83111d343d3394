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
