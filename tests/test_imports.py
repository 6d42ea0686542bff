"""Every name a module of the package imports is used in that module,
every module-level private name or UPPER_CASE constant is read somewhere in
the package, and every method or property of a package class is read
somewhere in src/, tests/, scripts/ or bench/.

The modules are read with ast only, never imported.  The package's
__init__ is left out of the import check (its imports are the public
re-exports), and so are __future__ imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sigmapoly"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as -> "Germ" names a class too
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_every_module_is_scanned():
    assert {p.name for p in MODULES} >= {"flow.py", "maps.py", "bifurcation.py", "cli.py", "core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_imported(tree) - _used(tree)) == []


def _module_level(tree: ast.Module):
    """Names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read(tree: ast.Module) -> set[str]:
    """Names a module loads, bare or as an attribute (module.NAME)."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _private_or_constant(name: str) -> bool:
    return (name.startswith("_") and not name.startswith("__")) or name.isupper()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names_or_constants(path):
    read = set().union(*map(_read, TREES.values()))
    names = [n for n in _module_level(TREES[path.name]) if _private_or_constant(n)]
    assert sorted(n for n in names if n not in read) == []


ROOT = SRC.parents[1]
READERS = sorted(p for d in ("src", "tests", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))


def _members(tree: ast.Module):
    """(class, name) of every non-dunder method and property a module defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("__"):
                    yield node.name, f.name


def _attrs_and_strings(tree: ast.Module) -> set[str]:
    """Names a module reads as an attribute (obj.name), or spells as a whole string ("name")."""
    return {
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    }


def test_no_unread_members():
    read = set().union(*(_attrs_and_strings(ast.parse(p.read_text(), filename=str(p))) for p in READERS))
    unread = [f"{p.name}:{c}.{m}" for p in MODULES for c, m in _members(TREES[p.name]) if m not in read]
    assert sorted(unread) == []
