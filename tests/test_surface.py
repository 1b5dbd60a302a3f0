"""The package defines only what it uses itself.

Every module under src/strippack is parsed with ``ast``.  A function,
method or class defined there must be referenced, as a name or an
attribute, somewhere in the package (dunder methods are called by the
interpreter and are exempt), every attribute a method assigns on ``self``
must be read somewhere in the package, and every name a module imports must
be used in that module or listed in its ``__all__``.  A name that only the
tests call belongs in the tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "strippack"
MODULES = sorted(SRC.glob("*.py"))


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
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{name}:{node.lineno} self.{node.attr}"
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"
              and node.attr not in read]
    assert not unread, f"assigned on self but never read in src: {unread}"


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
