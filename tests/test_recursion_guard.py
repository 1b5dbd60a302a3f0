"""No function in the package calls itself.

Recursion whose depth grows with n fails on large valid input with the
interpreter's RecursionError, so every loop over squares, holes or runs is
written as a loop.  Every module under src/strippack is parsed with
``ast``, and a function that calls itself, by its bare name or as
``self.<name>``, fails."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "strippack"
ALLOWED = set()


def _calls_itself(call: ast.Call, name: str) -> bool:
    f = call.func
    return (isinstance(f, ast.Name) and f.id == name
            or isinstance(f, ast.Attribute) and f.attr == name
            and isinstance(f.value, ast.Name) and f.value.id == "self")


def _self_calls(tree, prefix=""):
    """``(line, qualified name)`` of each call a function makes to itself."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and _calls_itself(sub, node.name):
                    yield sub.lineno, name
            yield from _self_calls(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _self_calls(node, prefix + node.name + ".")
        else:
            yield from _self_calls(node, prefix)


def test_no_function_calls_itself():
    found = [(path.name, name, line)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _self_calls(ast.parse(path.read_text(),
                                                     str(path)))]
    outside = [f"{p}:{line} in {name}" for p, name, line in found
               if (p, name) not in ALLOWED]
    assert not outside, f"recursive calls: {outside}"
    # each allowed case calls itself once, and still exists
    assert [(p, name) for p, name, _ in found] == sorted(ALLOWED)


def test_the_guard_sees_a_self_call():
    tree = ast.parse("def walk(node):\n"
                     "    return [walk(c) for c in node]\n"
                     "class Tree:\n"
                     "    def depth(self, node):\n"
                     "        return 1 + self.depth(node.up)\n"
                     "    def size(self, other):\n"
                     "        return other.size()\n")
    assert list(_self_calls(tree)) == [(2, "walk"), (5, "Tree.depth")]
