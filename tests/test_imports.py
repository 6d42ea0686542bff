"""Every name a module of the package imports is used in that module,
every module-level private name or UPPER_CASE constant is read somewhere in
the package, and every method, property or annotated field of a package
class is read somewhere in src/, tests/, scripts/ or bench/.  The one
scipy import in the package is scipy.integrate in flow's module
__getattr__, read by a tracer alone: the program runs on numpy, and no
module imports scipy when it loads.  flow._flight is the one place that
builds a stepper.

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
    """(class, name) of every non-dunder method, property and annotated field a module defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("__"):
                    yield node.name, f.name
                elif isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
                    yield node.name, f.target.id


def _self_attr(n: ast.AST) -> bool:
    return isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"


def _own_uses(tree: ast.Module):
    """(class, name, node) of every self.name, read or written, inside a class whose methods assign self.name."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            own = {n.attr for n in ast.walk(cls) if _self_attr(n) and isinstance(n.ctx, ast.Store)}
            for n in ast.walk(cls):
                if _self_attr(n) and n.attr in own:
                    yield cls.name, n.attr, n


def _reads(tree: ast.Module) -> tuple[set[str], set[tuple[str, str]]]:
    """Names a module reads as an attribute (obj.name) or spells as a whole string ("name"), and
    the (class, name) pairs read as self.name inside a class that assigns self.name itself.

    Such a self.name counts for that class alone, so one class's helper state does not hide a
    write-only member of the same name in another class.
    """
    own = list(_own_uses(tree))
    own_nodes = {id(n) for _, _, n in own}
    names = {
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and id(n) not in own_nodes)
        or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    }
    return names, {(c, m) for c, m, n in own if isinstance(n.ctx, ast.Load)}


def _names_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


@pytest.mark.parametrize("name", sorted(TREES))
def test_scipy_is_imported_only_in_function_bodies(name):
    # importing scipy.integrate is most of a fresh process's set-up; the
    # closed-form paths never need it
    tree = TREES[name]
    bodies = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_bodies = {id(n) for f in bodies for n in ast.walk(f)}
    assert [n.lineno for n in ast.walk(tree) if _names_scipy(n) and id(n) not in in_bodies] == []


def test_the_one_scipy_import_is_the_tracer_hook():
    # flow.brentq polishes every root; scipy.integrate is bound only when a
    # tracer reads flow.solve_ivp
    imports = [
        (name, f.name, ast.unparse(n)) for name, tree in TREES.items()
        for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(f) if _names_scipy(n)
    ]
    assert imports == [("flow.py", "__getattr__", "from scipy.integrate import solve_ivp")]


def test_no_unread_members():
    read, own = set(), set()
    for p in READERS:
        names, pairs = _reads(ast.parse(p.read_text(), filename=str(p)))
        read |= names
        own |= pairs
    unread = [
        f"{p.name}:{c}.{m}" for p in MODULES for c, m in _members(TREES[p.name])
        if m not in read and (c, m) not in own
    ]
    assert sorted(unread) == []


def _callee(node: ast.Call) -> str | None:
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_one_stepper():
    # every orbit flies through flow._flight, the one Taylor stepper: the
    # package names no scipy stepper or dense output, calls no solve_ivp, and
    # the one call of a jet's series is _flight's
    flight = next(f for f in TREES["flow.py"].body if isinstance(f, ast.FunctionDef) and f.name == "_flight")
    ours = [("flow.py", n.lineno) for n in ast.walk(flight) if isinstance(n, ast.Call) and _callee(n) == "series"]
    steppers = [
        (name, n.lineno) for name, tree in TREES.items() for n in ast.walk(tree)
        if isinstance(n, ast.Call) and _callee(n) in ("solve_ivp", "series")
    ]
    assert len(ours) == 1 and steppers == ours
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in TREES.values() for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
    }
    imported = set().union(*(_imported(tree) for tree in TREES.values()))
    assert not {"DOP853", "OdeSolution", "RK45", "Radau", "LSODA"} & (named | imported)
