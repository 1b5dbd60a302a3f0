"""Accounting for slot-strategy packings: shadows, widenings, and the
regions charged to each square by upward ray shooting.

Every placed square gets a shadow of equal area inside the double-width
slot containing it (right-only, clipped to the strip, for sides >= 1/2).
The widening is square-plus-shadow clipped to the square's own slot, which
always spans the slot's full width.  Points below the closing square that
lie in no widening are charged to the first widening straight above them;
the charged area per square never exceeds 8/13 of its area.

The charge map runs on the packing's integer lattice, fitted so that every
slot boundary is an integer: extents, widenings and charged regions are
integer ``(l, r, b, t)``, and one x-sweep keeps the rects spanning the
current column in sorted lists (Bentley's sweep for the measure of a union
of rectangles), so no column rescans every square.  Fractions are made only
for the reported areas.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .numbers import ONE, ZERO, Scalar
from .packing import Check, Packing, Placement
from .slots import round_to_dyadic

EIGHT_THIRTEENTHS = Fraction(8, 13)

LatticeRect = tuple[int, int, int, int]


@dataclass
class ChargeMap:
    """Exact charged areas per square (by arrival index), and the charged
    regions as ``(l, r, b, t)`` on the closed packing's lattice, at the
    scale ``charge_map`` fitted it to (``Packing.lattice``)."""

    areas: dict[int, Scalar]
    regions: dict[int, list[LatticeRect]]

    def area_of(self, index: int) -> Scalar:
        return self.areas.get(index, ZERO)


def _extent_and_widening(pl: Placement, rect: LatticeRect, scale: int
                         ) -> tuple[LatticeRect, LatticeRect, tuple[int, int]]:
    """The shadowed extent (square union shadow, clipped to the strip), the
    widening (the extent clipped to the square's own slot) and the widening's
    tie key ``(k, slot index)``, on a lattice where the square's slot width
    ``scale >> k`` is an integer and, as ``SlotState`` places it, divides l.

    The extent is never charged to anybody: excluding the shadow together
    with the square is what lets the accounting subtract a square's area
    twice from the space it blocks.  Rays attribute charges to widenings
    only, which keeps every charged region inside one slot column, while
    the parts of a shadow that leak past the slot boundary still shield the
    space below them.
    """
    l, r, b, t = rect
    k, _ = round_to_dyadic(pl.item.side)
    w = scale >> k
    j = l // w
    s = r - l
    if k == 0:
        # sides above 1/2 enlarge to the right only, clipped to the strip
        lo, hi = l, min(scale, r + s)
    else:
        # right up to the parent slot's right edge, the rest to the left:
        # the extent stays inside the parent slot, so inside the strip
        right = min(s, (j // 2 + 1) * 2 * w - r)
        lo, hi = l - (s - right), r + right
    return ((lo, hi, b, t), (max(lo, j * w), min(hi, (j + 1) * w), b, t),
            (k, j))


def charge_map(p_closed: Packing) -> ChargeMap:
    """Partition all points below the closing square's top that lie in no
    square-or-shadow extent, by upward ray shooting to the first widening.

    Ties (several widenings starting at the same height over a column) are
    broken toward the wider slot, then the lower slot index; points on a
    widening's boundary count as inside it.

    The columns lie between consecutive x-edges of the extents and
    widenings.  One sweep over the edges inserts a rect into its sorted
    active list at its left edge and removes it at its right edge, so each
    column walks only the rects that span it; there one region is charged
    per gap below the top.  ``p_closed`` ends with ``close_packing``'s square:
    its widening spans the strip at the highest bottom, so one tops every gap.
    """
    pls = p_closed.placements
    scale, rects = p_closed.lattice(
        *(round_to_dyadic(pl.item.side)[1] for pl in pls))
    blockers: list[tuple[int, int, int]] = []       # (b, t, i) spanning x0
    stops: list[tuple[int, int, int, int]] = []     # (b, k, slot index, i)
    events: dict[int, list] = {0: [], scale: []}
    for i, (pl, rect) in enumerate(zip(pls, rects)):
        ext, wid, (k, j) = _extent_and_widening(pl, rect, scale)
        b, t = rect[2], rect[3]
        for active, (l, r, _, _), key in ((blockers, ext, (b, t, i)),
                                          (stops, wid, (b, k, j, i))):
            events.setdefault(l, []).append((active, key, True))
            events.setdefault(r, []).append((active, key, False))
    sums: dict[int, int] = {}
    regions: dict[int, list[LatticeRect]] = {}
    xs = sorted(events)
    for x0, x1 in zip(xs, xs[1:]):
        for active, key, enters in events[x0]:
            if enters:
                insort(active, key)
            else:
                del active[bisect_left(active, key)]
        cover = 0
        gaps = []
        for bottom, top, _ in blockers:
            if bottom > cover:
                gaps.append((cover, bottom))
            if top > cover:
                cover = top
        si = 0
        for g_lo, g_hi in gaps:
            si = bisect_left(stops, (g_hi,), si)
            idx = pls[stops[si][3]].item.index
            sums[idx] = sums.get(idx, 0) + (g_hi - g_lo) * (x1 - x0)
            regions.setdefault(idx, []).append((x0, x1, g_lo, g_hi))
    areas = {idx: Fraction(v, scale * scale) for idx, v in sums.items()}
    return ChargeMap(areas, regions)


def check_slot_bounds(p_closed: Packing, cm: ChargeMap) -> list[Check]:
    """Exact per-square and aggregate bounds implied by the charge map."""
    checks = []
    for pl in p_closed.placements:
        charged = cm.area_of(pl.item.index)
        limit = EIGHT_THIRTEENTHS * pl.item.side ** 2
        if charged > limit:
            checks.append(Check(f"slot-per-square-{pl.item.index}", False,
                                str(charged), "<=", str(limit)))
    worst = max((cm.area_of(pl.item.index) / pl.item.side ** 2
                 for pl in p_closed.placements), default=ZERO)
    checks.append(Check("slot-per-square", worst <= EIGHT_THIRTEENTHS,
                        f"max |F|/a^2 = {worst}", "<=", "8/13"))
    open_pls = p_closed.placements[:-1]
    area_sum = sum((pl.item.side ** 2 for pl in open_pls), ZERO)
    height = max((pl.top for pl in open_pls), default=ZERO)
    charge_sum = sum(cm.areas.values(), ZERO)
    checks.append(Check("slot-height-decomposition",
                        height <= 2 * area_sum + charge_sum,
                        str(height), "<=", f"2*{area_sum} + {charge_sum}"))
    closed_sum = area_sum + ONE
    checks.append(Check("theorem2",
                        height <= 2 * area_sum + EIGHT_THIRTEENTHS * closed_sum,
                        str(height), "<=", f"2*{area_sum} + 8/13*{closed_sum}"))
    return checks
