"""The BottomLeft strategy: lowest, then leftmost, reachable supported spot.

Candidate resting levels are 0 and the tops of placed squares.  At a level
y > 0 a position x is feasible when it lies in a closed reachable span and
strictly inside the open support (l_j - a, r_j) of a square whose top is y.
The candidates are the left ends of the reachable spans only.  The
feasible points of a span reach down to its left end or to a support's left
end that no support covers; a square at the latter is reachable and meets
the tops at y only at a corner, so it could drop below y, and y is the
lowest level with a feasible position.  The search is exact, and some
candidate wins: at the floor, 0, every reachable position is supported;
a sweep sealed above the floor has spans at its lowest event, as they
contain those of the slab above, and the left end of the first one, free
there but sealed off below, lies strictly inside a support entering there.

The reachability sweep runs from the top down, stops at the first level
sealed off from above, and hands over each level where a square can rest
with that level's reachable spans and supports; the levels are walked
upward from there, so a placement reads only the squares the sweep read.
"""

from __future__ import annotations

from fractions import Fraction

from .packing import Packing, Placement, SquareItem, reachable_positions


def bl_place_next(p: Packing, item: SquareItem) -> tuple[Placement, tuple]:
    """Lowest reachable supported spot, ties broken leftmost, and its rect.

    The search runs on the packing's integer lattice, with the side
    converted once, and the rect is the square's ``(l, r, b, t)`` there.
    The candidate levels, their reachable spans and their supports are the
    sweep's ``levels``: the floor, then each event up from the seal."""
    a = item.side
    (sa,) = p.units(a)
    sweep = reachable_positions(p, a, at=(0, sa, 0, sa))
    scale = sweep.scale
    for y, reach, tops in sweep.levels():
        for x, _ in reach:
            if y == 0 or any(lo < x < hi for lo, hi in tops):
                return (Placement(item, Fraction(x, scale), Fraction(y, scale)),
                        (x, x + sa, y, y + sa))


class BottomLeftState:
    """The BottomLeft strategy, one square at a time."""

    def __init__(self):
        self.packing = Packing()

    def place(self, item: SquareItem) -> Placement:
        pl, at = bl_place_next(self.packing, item)
        self.packing = self.packing.extended(pl, at)
        return pl
