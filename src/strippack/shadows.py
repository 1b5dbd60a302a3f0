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
of rectangles), so no column rescans every square.  Each square's charged
area is summed there in lattice units, and ``check_slot_bounds`` decides
every bound on those sums and the squares' lattice sides; Fractions are
made only for the values that the report prints.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .numbers import Scalar
from .packing import Check, Packing
from .slots import round_to_dyadic

LatticeRect = tuple[int, int, int, int]


@dataclass
class ChargeMap:
    """Charged areas per square (by arrival index): exact in ``areas``, and
    in ``sums`` on the closed packing's lattice, as multiples of 1/scale^2;
    the charged regions as ``(l, r, b, t)`` on that lattice, at the scale
    ``charge_map`` fitted it to (``Packing.lattice``)."""

    areas: dict[int, Scalar]
    regions: dict[int, list[LatticeRect]]
    sums: dict[int, int]


def _extent_and_widening(k: int, rect: LatticeRect, scale: int
                         ) -> tuple[LatticeRect, LatticeRect, int]:
    """The shadowed extent (square union shadow, clipped to the strip), the
    widening (the extent clipped to the square's own slot) and the slot's
    index, for a square rounded to level k on a lattice where its slot
    width ``scale >> k`` is an integer and, as ``SlotState`` places it,
    divides l.

    The extent is never charged to anybody: excluding the shadow together
    with the square is what lets the accounting subtract a square's area
    twice from the space it blocks.  Rays attribute charges to widenings
    only, which keeps every charged region inside one slot column, while
    the parts of a shadow that leak past the slot boundary still shield the
    space below them.
    """
    l, r, b, t = rect
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
    return (lo, hi, b, t), (max(lo, j * w), min(hi, (j + 1) * w), b, t), j


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
    items = p_closed.items
    levels = [round_to_dyadic(item.side) for item in items]
    scale, rects = p_closed.lattice(*(w for _, w in levels))
    blockers: list[tuple[int, int, int]] = []       # (b, t, i) spanning x0
    stops: list[tuple[int, int, int, int]] = []     # (b, k, slot index, i)
    events: dict[int, list] = {0: [], scale: []}
    for i, (rect, (k, _)) in enumerate(zip(rects, levels)):
        ext, wid, j = _extent_and_widening(k, rect, scale)
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
            idx = items[stops[si][3]].index
            sums[idx] = sums.get(idx, 0) + (g_hi - g_lo) * (x1 - x0)
            regions.setdefault(idx, []).append((x0, x1, g_lo, g_hi))
    areas = {idx: Fraction(v, scale * scale) for idx, v in sums.items()}
    return ChargeMap(areas, regions, sums)


def check_slot_bounds(p_closed: Packing, cm: ChargeMap) -> list[Check]:
    """Exact per-square and aggregate bounds implied by the charge map,
    decided on lattice integers at scale^2: a square of lattice side s has
    area s^2, and the closing square rests at the open packing's height."""
    scale, rects = p_closed.lattice()
    unit, checks = scale * scale, []
    worst_c, worst_a, area = 0, 1, 0    # the largest c / s^2; the area
    for item, (l, r, _, _) in zip(p_closed.items, rects):
        c, a = cm.sums.get(item.index, 0), (r - l) ** 2
        if 13 * c > 8 * a:
            checks.append(Check(f"slot-per-square-{item.index}", False,
                                str(Fraction(c, unit)), "<=",
                                str(Fraction(8 * a, 13 * unit))))
        if c * worst_a > worst_c * a:
            worst_c, worst_a = c, a
        area += a
    checks.append(Check("slot-per-square", 13 * worst_c <= 8 * worst_a,
                        f"max |F|/a^2 = {Fraction(worst_c, worst_a)}", "<=",
                        "8/13"))
    height, open_area = rects[-1][2] * scale, area - unit
    y = str(Fraction(rects[-1][2], scale))      # the closing square's bottom
    area_sum, charge_sum = Fraction(open_area, unit), sum(cm.sums.values())
    checks.append(Check("slot-height-decomposition",
                        height <= 2 * open_area + charge_sum, y, "<=",
                        f"2*{area_sum} + {Fraction(charge_sum, unit)}"))
    checks.append(Check("theorem2", 13 * height <= 26 * open_area + 8 * area,
                        y, "<=",
                        f"2*{area_sum} + 8/13*{Fraction(area, unit)}"))
    return checks
