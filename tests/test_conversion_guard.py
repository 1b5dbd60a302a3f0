"""Rationals become lattice integers in one place.

Every coordinate and side enters the package as a ``Fraction`` and the
geometry runs on integers of one lattice, so the decision of how a
rational becomes an integer lives in ``packing._Lattice`` alone.  Every
module under src/strippack is parsed with ``ast``, and a read of
``.numerator`` anywhere else fails, except where a numerator is the
answer itself: ``numbers.format_scalar`` prints it and
``slots.round_to_dyadic`` compares bit lengths, and where it converts
nothing: ``packing.SquareItem`` checks its side's range as ``0 < p <= q``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "strippack"
ALLOWED = {("packing.py", "_Lattice"), ("numbers.py", "format_scalar"),
           ("slots.py", "round_to_dyadic"),
           # a range check is not a lattice conversion
           ("packing.py", "SquareItem")}


def _numerator_reads(tree):
    """``(line, enclosing top-level definition)`` of each ``.numerator``
    read in a module."""
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "numerator"
                    and isinstance(node.ctx, ast.Load)):
                yield node.lineno, name


def test_numerators_are_read_only_in_the_lattice():
    outside = [f"{path.name}:{line} in {name}"
               for path in sorted(SRC.glob("*.py"))
               for line, name in _numerator_reads(
                   ast.parse(path.read_text(), str(path)))
               if (path.name, name) not in ALLOWED]
    assert not outside, f".numerator read outside _Lattice: {outside}"


def test_the_guard_sees_a_read():
    # an inline conversion inside a function is found and named
    tree = ast.parse("def f(a, scale):\n"
                     "    return a.numerator * (scale // a.denominator)\n")
    assert list(_numerator_reads(tree)) == [(2, "f")]
