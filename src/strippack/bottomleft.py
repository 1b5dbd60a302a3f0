"""The BottomLeft strategy: lowest, then leftmost, reachable supported spot.

The reachability sweep runs from the top down and returns the lowest level
that a path from above reaches, with its reachable spans: the floor, 0, or
the level L where the sweep seals above it.  Every reachable spot there is
supported.  At 0 the ground supports it.  At L, a reachable spot with no
top at L under it could move down into the slab below, which would then be
reachable; but that slab is sealed.  So the spot is the left end of the
first span, and a placement reads only the squares the sweep read.  It
converts only the side, and makes no Fraction.
"""

from __future__ import annotations

from .packing import Packing, SquareItem, reachable_positions


def bl_place_next(p: Packing, item: SquareItem) -> tuple[int, int, int, int]:
    """The lattice rect ``(l, r, b, t)`` of the lowest reachable supported
    spot, ties broken leftmost.

    The search runs on the packing's integer lattice, with the side
    converted once.  Every spot reachable at the sweep's level is
    supported, so the spot is the left end of the first span there."""
    sa, = p.units(item.side)
    y, spans = reachable_positions(p, (0, sa, 0, sa))
    x = spans[0][0]
    return x, x + sa, y, y + sa


class BottomLeftState:
    """The BottomLeft strategy, one square at a time."""

    def __init__(self):
        self.packing = Packing()

    def place(self, item: SquareItem) -> tuple[int, int, int, int]:
        at = bl_place_next(self.packing, item)
        self.packing = self.packing.extended(item, at)
        return at
