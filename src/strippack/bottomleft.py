"""The BottomLeft strategy: lowest, then leftmost, reachable supported spot.

Candidate resting levels are 0 and the tops of placed squares.  At a level
y > 0 a position x is feasible when it lies in a closed reachable span and
strictly inside the open support (l_j - a, r_j) of a square whose top is y.
The candidates are the left ends of the reachable spans only.  The
feasible points of a span reach down to its left end or to a support's left
end that no support covers; a square at the latter is reachable and meets
the tops at y only at a corner, so it could drop below y, and y is the
lowest level with a feasible position.  The search is exact, and fails
loudly if no candidate wins where a feasible position exists.

The reachability sweep runs from the top down and stops at the first level
sealed off from above; the levels are scanned upward from there, so a
placement reads only the squares near the top of the packing.
"""

from __future__ import annotations

from fractions import Fraction

from .packing import (Packing, PackingError, Placement, SquareItem,
                      reachable_positions)


def bl_place_next(p: Packing, item: SquareItem) -> tuple[Placement, tuple]:
    """Lowest reachable supported spot, ties broken leftmost, and its rect.

    The search runs on the packing's integer lattice, with the side
    converted once, and the rect is the square's ``(l, r, b, t)`` there.
    Nothing below the sweep's lowest level is reachable, so the candidate
    levels are 0, if that level is 0, and the tops at or above it.  Sides
    are at most 1, so those tops come from the bottoms at or above 1 below
    that level, and the tops at level y from the bottoms in [y - 1, y)."""
    a = item.side
    (sa,) = p.units(a)
    sweep = reachable_positions(p, a, at=(0, sa, 0, sa))
    scale, low = sweep.scale, sweep.lowest
    levels = {t for _, _, _, t in p.window(low - scale) if t >= low}
    if low == 0:
        levels.add(0)
    for y in sorted(levels):
        reach = sweep.spans_at(y)
        tops = [(l - sa, r) for l, r, _, t in p.window(y - scale, y)
                if t == y]
        for x, _ in reach:
            if y == 0 or any(lo < x < hi for lo, hi in tops):
                return (Placement(item, Fraction(x, scale), Fraction(y, scale)),
                        (x, x + sa, y, y + sa))
        # a reachable supported position with no attained minimum would
        # contradict the level being minimal; re-check and fail loudly
        if any(rlo < hi and rhi > lo
               for rlo, rhi in reach for lo, hi in tops):
            raise PackingError("internal: minimum x not attained at minimal level")
    raise PackingError("internal: no feasible position found")


class BottomLeftState:
    """The BottomLeft strategy, one square at a time."""

    def __init__(self):
        self.packing = Packing()

    def place(self, item: SquareItem) -> Placement:
        pl, at = bl_place_next(self.packing, item)
        self.packing = self.packing.extended(pl, at)
        return pl
