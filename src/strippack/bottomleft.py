"""The BottomLeft strategy: lowest, then leftmost, reachable supported spot.

Candidate resting levels are 0 and the tops of placed squares; within a
level the leftmost feasible x is one of finitely many event coordinates
(reachable-corridor left endpoints and support-alignment positions), so the
search is exact and terminates.  The reachability sweep runs from the top
down and stops at the first level sealed off from above; the levels are
scanned upward from there, so a placement reads only the squares near the
top of the packing.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import merge_open_spans, spans_contain
from .numbers import ZERO
from .packing import (Packing, PackingError, Placement, SquareItem,
                      reachable_positions)


def bl_place_next(p: Packing, item: SquareItem) -> Placement:
    """Lowest reachable supported position, ties broken leftmost.

    The search runs on the packing's integer lattice.  Nothing below the
    sweep's lowest level is reachable, so the candidate levels are 0, if
    that level is 0, and the tops at or above it.  Sides are at most 1, so
    those tops come from the bottoms at or above 1 below that level, and
    the tops at level y from the bottoms in [y - 1, y)."""
    a = item.side
    sweep = reachable_positions(p, a)
    scale, low = sweep.scale, sweep.lowest
    sa = a.numerator * (scale // a.denominator)
    levels = {t for _, _, _, t in p.window(low - scale) if t >= low}
    if low == 0:
        levels.add(0)
    for y in sorted(levels):
        reach = sweep.spans_at(y)
        if not reach:
            continue
        if y == 0:
            return Placement(item, Fraction(reach[0][0], scale), ZERO)
        supports = merge_open_spans([(l - sa, r) for l, r, _, t
                                     in p.window(y - scale, y) if t == y])
        candidates = sorted({lo for lo, _ in reach}
                            | {lo for lo, _ in supports if lo >= 0})
        for x in candidates:
            if x > scale - sa:
                break
            if spans_contain(reach, x) and _in_open(supports, x):
                return Placement(item, Fraction(x, scale), Fraction(y, scale))
        # a reachable supported position with no attained minimum would
        # contradict the level being minimal; re-check and fail loudly
        if any(rlo < shi and rhi > slo
               for rlo, rhi in reach for slo, shi in supports):
            raise PackingError("internal: minimum x not attained at minimal level")
    raise PackingError("internal: no feasible position found")


def _in_open(opens, x) -> bool:
    for lo, hi in opens:
        if lo < x < hi:
            return True
        if lo >= x:
            return False
    return False


class BottomLeftState:
    """The BottomLeft strategy, one square at a time."""

    def __init__(self):
        self.packing = Packing()

    def place(self, item: SquareItem) -> Placement:
        pl = bl_place_next(self.packing, item)
        self.packing = self.packing.extended(pl)
        return pl
