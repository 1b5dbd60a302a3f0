"""List the statements of the package that the test suite never runs.

    PYTHONPATH=src python tests/unreached_lines.py [pytest args...]

Runs the tests (the whole ``tests`` directory unless pytest arguments are
given) under a ``sys.settrace`` hook that traces only the frames of code
in ``src/strippack``, then prints ``file:line: text`` for every statement
in a function body that never ran, in file and line order.  Docstrings and
``nonlocal``/``global`` lines are not statements that run, and module and
class bodies run at import, so none of them is listed.  A compound
statement counts as run when a line of its header ran, any other
statement when any of its lines ran.

Tracing only the package's frames keeps the run near three times the
plain suite's time: about 2 minutes (835 tests in 138 s against 38 s
untraced) on a 2-CPU machine with Python 3.11.7, where
``trace.Trace(count=1)`` around ``pytest.main`` took 323 s on 609 tests.
Tests that start the CLI in a fresh interpreter are not traced, as with
``trace``.  The exit status is 1 when a ``raise`` statement never ran,
else pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "strippack"


def trace_suite(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status and the ``(filename, line)`` pairs that ran
    in the package."""
    ran: set[tuple[str, int]] = set()
    mine: dict[str, bool] = {}
    prefix = str(PACKAGE)

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in mine:
            mine[name] = name.startswith(prefix)
        if not mine[name]:
            return None
        ran.add((name, frame.f_lineno))
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement's header: the line before its first
    nested statement, or its last line if it nests none."""
    inner = [getattr(node, f)[0].lineno for f in ("body", "orelse",
             "finalbody", "handlers") if getattr(node, f, None)]
    return min(inner) - 1 if inner else node.end_lineno


def function_statements(tree: ast.Module):
    """Every statement that a function body runs: nested statements
    included, docstrings and ``nonlocal``/``global`` left out."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo = list(fn.body)
        first = fn.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            todo.pop(0)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                continue
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue            # a body of its own, walked by itself
            for field in ("body", "orelse", "finalbody"):
                todo += getattr(node, field, [])
            for handler in getattr(node, "handlers", []):
                todo += handler.body
            for case in getattr(node, "cases", []):
                todo += case.body


def unreached(ran: set[tuple[str, int]]) -> list[tuple[str, bool]]:
    """``file:line: text`` of each statement that never ran, in file and
    line order, and whether it is a ``raise``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text, name = path.read_text(), str(path)
        lines, missed = text.splitlines(), {}
        for node in function_statements(ast.parse(text, name)):
            start = min([d.lineno for d in getattr(node, "decorator_list", [])]
                        + [node.lineno])
            if not any((name, y) in ran
                       for y in range(start, _header_end(node) + 1)):
                missed[node.lineno] = (missed.get(node.lineno, False)
                                       or isinstance(node, ast.Raise))
        rel = path.relative_to(ROOT)
        out += [(f"{rel}:{y}: {lines[y - 1].strip()}", missed[y])
                for y in sorted(missed)]
    return out


def main(argv: list[str]) -> int:
    status, ran = trace_suite(argv)
    missed = unreached(ran)
    print("\n".join(line for line, _ in missed))
    return 1 if any(is_raise for _, is_raise in missed) else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
