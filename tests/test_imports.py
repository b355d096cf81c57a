"""Import hygiene of the package, checked with the stdlib ``ast``.

Every module in ``src/symplie/`` uses each name it imports: every name
bound by an ``import`` or ``from ... import`` statement, at any depth,
must be read somewhere in the module (``from __future__`` imports are
exempt).  The modules are layered

    linalg < freelie < surface < reps < johnson < magnus < claims < cli

and a module imports at top level only from modules before it.  The
package root imports no submodule at top level, so ``symplie.<module>``
is always the submodule.  The only imports inside functions are the
deferred ones listed in ``DEFERRED``.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

import symplie

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symplie"
MODULES = sorted(PACKAGE.glob("*.py"))
ORDER = ["linalg", "freelie", "surface", "reps", "johnson", "magnus", "claims", "cli"]

# (file, function, module) for each relative import inside a function:
# clear_caches reaches the memos of four modules, and module_character
# reaches the der/outder characters of johnson, which imports reps.
DEFERRED = sorted(
    [("__init__.py", "clear_caches", m) for m in ("freelie", "johnson", "reps", "surface")]
    + [("reps.py", "module_character", "johnson")] * 2
)


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


def relative_imports(source: str) -> list:
    """(enclosing function or None, submodule, line) for each submodule a
    relative import names; ``from . import a, b`` names a and b."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                mods = [child.module] if child.module else [a.name for a in child.names]
                found.extend((func, m, child.lineno) for m in mods)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_checker_flags_an_unused_import():
    src = "from .linalg import EchelonSpan, kernel_basis\nimport os\n\nkernel_basis([])\n"
    assert unused_imports(src) == ["EchelonSpan (line 1)", "os (line 2)"]


def test_relative_imports_reports_the_enclosing_function():
    src = "from .linalg import vec_axpy\n\ndef f():\n    from . import reps, surface\n"
    assert relative_imports(src) == [(None, "linalg", 1), ("f", "reps", 4), ("f", "surface", 4)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_top_level_imports_follow_the_layering(path):
    rank = ORDER.index(path.stem)
    upward = [f"{m} (line {line})" for func, m, line in relative_imports(path.read_text())
              if func is None and not (m in ORDER and ORDER.index(m) < rank)]
    assert upward == []


def test_package_root_imports_no_submodule_at_top_level():
    top = [m for func, m, _ in relative_imports((PACKAGE / "__init__.py").read_text()) if func is None]
    assert top == []


def test_function_level_imports_are_the_deferred_ones():
    found = sorted((p.name, func, m) for p in MODULES
                   for func, m, _ in relative_imports(p.read_text()) if func is not None)
    assert found == DEFERRED


def test_submodule_import_binds_the_module():
    import symplie.magnus as m

    assert m is sys.modules["symplie.magnus"]


def test_package_root_exports_only_clear_caches_and_version():
    names = {n for n, v in vars(symplie).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == {"clear_caches"}
    assert isinstance(symplie.__version__, str)
