"""Hole accounting runs on lattice integers.

``holes`` measures corners, areas, side lengths and charge segments on
the closed packing's lattice, sums each hole's bound as an integer (twice
the bound) and counts the ledger in halves, each charged side's weight
fixed by the side.  A value becomes a Fraction only where it leaves the
module.  ``holes.py`` is parsed with ``ast``, and a ``Fraction(...)`` call
fails unless it lies in one of those boundary definitions: the hole's area
and region, the bound ``hole_area_bound`` returns, the charges the report
prints and the checks of ``run_bottomleft_analysis``."""

import ast
from pathlib import Path

HOLES = Path(__file__).resolve().parents[1] / "src" / "strippack" / "holes.py"
BOUNDARIES = {"Hole.area", "Hole.region", "hole_area_bound",
              "BottomLeftAnalysis.report", "run_bottomleft_analysis"}


def _definitions(tree):
    """``(name, node)`` of each top-level function, class method and
    module-level assignment; a method is named ``Class.method``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield f"{top.name}.{getattr(node, 'name', '')}", node
        elif isinstance(top, ast.Assign):
            yield ", ".join(ast.unparse(t) for t in top.targets), top
        else:
            yield getattr(top, "name", ""), top


def _fraction_calls(tree):
    """``(line, enclosing definition)`` of each ``Fraction(...)`` call."""
    for name, top in _definitions(tree):
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Fraction"):
                yield node.lineno, name


def test_fractions_are_built_only_at_the_boundary():
    outside = [f"holes.py:{line} in {name or 'module'}"
               for line, name in _fraction_calls(
                   ast.parse(HOLES.read_text(), str(HOLES)))
               if name not in BOUNDARIES]
    assert not outside, f"Fraction built inside the accounting: {outside}"


def test_the_guard_sees_a_call():
    # a charge term's segment made a Fraction, in a method and in a
    # function, is found and named
    tree = ast.parse("class Term:\n"
                     "    def part(self):\n"
                     "        return Fraction(self.segment, 4)\n"
                     "def bound(terms):\n"
                     "    return sum(Fraction(t, 2) for t in terms)\n"
                     "LIMIT = Fraction(5, 2)\n")
    assert list(_fraction_calls(tree)) == [(3, "Term.part"), (5, "bound"),
                                           (6, "LIMIT")]
