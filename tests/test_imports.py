"""Every module of the package uses each name it imports.

A stdlib ``ast`` check: for each module in ``src/symplie/`` other than
``__init__.py`` (which imports to re-export), every name bound by an
``import`` or ``from ... import`` statement, at any depth, must be read
somewhere in the module.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symplie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports but never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported, key=lambda t: t[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    src = "from .linalg import EchelonSpan, kernel_basis\nimport os\n\nkernel_basis([])\n"
    assert unused_imports(src) == ["EchelonSpan (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
