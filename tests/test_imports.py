"""Import hygiene of the package, checked with the stdlib ``ast``.

Every module in ``src/symplie/`` uses each name it imports: every name
bound by an ``import`` or ``from ... import`` statement, at any depth,
must be read somewhere in the module (``from __future__`` imports are
exempt).  The modules are layered

    linalg < reps < freelie < surface < johnson < magnus < claims < cli

and a module imports at top level only from modules before it.  The
package root imports no submodule at top level, so ``symplie.<module>``
is always the submodule.  The only imports inside functions are the
deferred ones listed in ``DEFERRED``.

Every public name has a caller: each public module-level name and each
public method in ``src/symplie/`` is read somewhere in ``src/`` outside
its own definition, or named in backticks in the README as library API,
or listed in ``BENCH_API``.
"""

import ast
import re
import sys
import types
from pathlib import Path

import pytest

import symplie

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symplie"
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(PACKAGE.glob("*.py"))
ORDER = ["linalg", "reps", "freelie", "surface", "johnson", "magnus", "claims", "cli"]

# (file, function, module) for each relative import inside a function:
# clear_caches reaches the memos of four modules.
DEFERRED = [("__init__.py", "clear_caches", m) for m in ("freelie", "johnson", "reps", "surface")]

# Public names only the benchmark reads: perfbench/session.py calls act_p
# in its Chevalley identity, and perfbench/tracer.py wraps contains.
BENCH_API = {"reps.act_p", "linalg.EchelonSpan.contains"}


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


def unread_public_names(sources: dict) -> list:
    """Qualified names ("module.name", "module.Class.method") of the public
    definitions in sources (module stem -> source) that no module reads.

    A module-level def, class or assigned name counts as read when some
    module loads it as a name or as an attribute, a method only when some
    module loads it as an attribute; reads inside a definition of the same
    name do not count, so a recursion is no caller.
    """
    names, attrs = set(), set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names.update({child.id} - inside)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                attrs.update({child.attr} - inside)
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, inside | {child.name} if defines else inside)

    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    for tree in trees.values():
        visit(tree, frozenset())
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                found = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [node.name]
            else:
                found = []
            unread += [f"{stem}.{n}" for n in found if n not in names | attrs]
            if isinstance(node, ast.ClassDef):
                unread += [f"{stem}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name not in attrs]
    return [qual for qual in unread if not any(part.startswith("_") for part in qual.split(".")[1:])]


def test_checker_flags_an_unused_import():
    src = "from .linalg import EchelonSpan, kernel_basis\nimport os\n\nkernel_basis([])\n"
    assert unused_imports(src) == ["EchelonSpan (line 1)", "os (line 2)"]


def test_relative_imports_reports_the_enclosing_function():
    src = "from .linalg import vec_axpy\n\ndef f():\n    from . import reps, surface\n"
    assert relative_imports(src) == [(None, "linalg", 1), ("f", "reps", 4), ("f", "surface", 4)]


def test_caller_check_flags_self_reads_and_unread_methods():
    src = ("def f(n):\n    return f(n - 1)\n\n"
           "class A:\n    def m(self):\n        return self.m()\n\n"
           "    def k(self):\n        return k\n\n"
           "A()\n")
    assert unread_public_names({"mod": src}) == ["mod.f", "mod.A.m", "mod.A.k"]


def test_every_public_name_has_a_caller():
    # the identifiers in README code spans; hyphenated claim names are none
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    ident = re.compile(r"(?<![\w-])[A-Za-z_]\w*(?![\w-])")
    documented = {n for span in spans for n in ident.findall(span)}
    unread = unread_public_names({p.stem: p.read_text() for p in MODULES})
    orphans = [q for q in unread if q.rsplit(".", 1)[-1] not in documented and q not in BENCH_API]
    assert orphans == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_top_level_imports_follow_the_layering(path):
    rank = ORDER.index(path.stem)
    upward = [f"{m} (line {line})" for func, m, line in relative_imports(path.read_text())
              if func is None and not (m in ORDER and ORDER.index(m) < rank)]
    assert upward == []


def test_johnson_leaves_reduction_to_the_quotient():
    # johnson brackets through surface.p_bracket and the Leibniz rule alone:
    # the reduction of a bracket and its pivot entries stay in freelie and
    # surface
    tree = ast.parse((PACKAGE / "johnson.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
              for a in n.names}
    assert names & {"bracket_coords", "reduce_coords"} == set()


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
