"""The package defines only what it uses itself.

Every module under src/strippack is parsed with ``ast``.  A function,
method or class defined there must be referenced, as a name or an
attribute, somewhere in the package (dunder methods are called by the
interpreter and are exempt), every attribute a method assigns on ``self``
must be read somewhere in the package or by the per-layer bench, as must
every dataclass field and every ``__slots__`` name, and every name a module
imports must be used in that module or listed in its ``__all__``.  A name
that only the tests call belongs in the tests.  Reads are judged by
attribute name only, so a name read on some other object counts as read;
for a field, a name only called as a method (``fh.read()``) does not."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "strippack"
MODULES = sorted(SRC.glob("*.py"))
# the per-layer bench reads results of the package from outside it
OUTSIDE_READERS = [ROOT / "bench" / "layers.py"]


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in MODULES}


def _referenced(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _loaded_attributes(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _field_reads(tree) -> set[str]:
    """The loaded attribute names, less the loads that are the function
    of a call."""
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in called}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            dec = dec.func
        if isinstance(dec, ast.Name) and dec.id == "dataclass":
            return True
    return False


def _stored_names(node: ast.ClassDef) -> list[str]:
    """The class's dataclass fields, or its ``__slots__`` names."""
    names = []
    for stmt in node.body:
        if (_is_dataclass(node) and isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            names.append(stmt.target.id)
        elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets):
            names.extend(elt.value for elt in stmt.value.elts)
    return names


def test_every_definition_is_referenced():
    trees = _trees()
    used = set().union(*(_referenced(t) for t in trees.values()))
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                dunder = node.name.startswith("__") and \
                    node.name.endswith("__")
                if not dunder and node.name not in used:
                    unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, f"defined but never referenced in src: {unused}"


def test_every_self_attribute_is_read():
    trees = _trees()
    read = set().union(*(_loaded_attributes(t) for t in trees.values()))
    for path in OUTSIDE_READERS:
        read |= _loaded_attributes(ast.parse(path.read_text(), str(path)))
    unread = [f"{name}:{node.lineno} self.{node.attr}"
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"
              and node.attr not in read]
    assert not unread, f"assigned on self but never read in src: {unread}"


def test_every_field_is_read():
    trees = _trees()
    read = set().union(*(_field_reads(t) for t in trees.values()))
    for path in OUTSIDE_READERS:
        read |= _field_reads(ast.parse(path.read_text(), str(path)))
    unread = [f"{name}:{node.lineno} {node.name}.{field}"
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)
              for field in _stored_names(node) if field not in read]
    assert not unread, f"stored but never read in src: {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _referenced(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{node.lineno} {bound}")
    assert not unused, f"{path.name} imports names it never uses: {unused}"
