"""Accounting for slot-strategy packings: shadows, widenings, and the
regions charged to each square by upward ray shooting.

Every placed square gets a shadow of equal area inside the double-width
slot containing it (right-only, clipped to the strip, for sides >= 1/2).
The widening is square-plus-shadow clipped to the square's own slot, which
always spans the slot's full width.  Points below the closing square that
lie in no widening are charged to the first widening straight above them;
the charged area per square never exceeds 8/13 of its area.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Interval, Rect
from .numbers import ONE, ZERO, Scalar
from .packing import Check, Packing, PackingError, Placement
from .slots import SlotId, round_to_dyadic

EIGHT_THIRTEENTHS = Fraction(8, 13)


@dataclass(frozen=True)
class Shadow:
    owner: Placement
    pieces: tuple[Rect, ...]       # left and/or right enlargement, clipped
    delta: Scalar
    delta_prime: Scalar

    @property
    def area(self) -> Scalar:
        return sum((r.area for r in self.pieces), ZERO)


def slot_of(pl: Placement) -> SlotId:
    """The slot a slot-strategy placement was dropped in."""
    k, w = round_to_dyadic(pl.item.side)
    index = pl.x / w
    if index.denominator != 1:
        raise PackingError(f"placement at {pl.x} is not on a level-{k} slot")
    return SlotId(k, int(index))


def shadow_of(pl: Placement, k: int) -> Shadow:
    a = pl.item.side
    y = Interval(pl.bottom, pl.top)
    if k == 0:
        # sides above 1/2 enlarge to the right only, clipped to the strip
        hi = min(ONE, pl.right + a)
        piece = Rect(Interval(pl.right, hi), y)
        return Shadow(pl, (piece,) if hi > pl.right else (), a, a)
    slot = SlotId(k, int(pl.x / Fraction(1, 2 ** k)))
    parent_right = SlotId(k - 1, slot.index // 2).right
    delta = parent_right - pl.right
    delta_prime = min(a, delta)
    pieces = []
    if delta_prime > ZERO:
        pieces.append(Rect(Interval(pl.right, pl.right + delta_prime), y))
    left = a - delta_prime
    if left > ZERO:
        pieces.append(Rect(Interval(pl.left - left, pl.left), y))
    return Shadow(pl, tuple(pieces), delta, delta_prime)


def shadowed_extent(pl: Placement) -> Rect:
    """Square union shadow at the owner's y-range, clipped to the strip.

    This region is never charged to anybody: excluding the shadow together
    with the square is what lets the accounting subtract a square's area
    twice from the space it blocks.
    """
    k, _ = round_to_dyadic(pl.item.side)
    shadow = shadow_of(pl, k)
    lo, hi = pl.left, pl.right
    for piece in shadow.pieces:
        lo = min(lo, piece.left)
        hi = max(hi, piece.right)
    return Rect(Interval(max(lo, ZERO), min(hi, ONE)),
                Interval(pl.bottom, pl.top))


def widening_of(pl: Placement) -> Rect:
    """(square union shadow) clipped to the square's own slot.

    Upward rays attribute charges to widenings only: keeping attribution
    inside the owner's slot is what keeps every charged region inside one
    slot column, while the parts of a shadow that leak past the slot
    boundary still shield the space below them (see shadowed_extent).
    """
    ext = shadowed_extent(pl)
    slot = slot_of(pl)
    return Rect(Interval(max(ext.left, slot.left), min(ext.right, slot.right)),
                Interval(pl.bottom, pl.top))


@dataclass
class ChargeMap:
    """Exact charged areas and regions per square (by arrival index)."""

    areas: dict[int, Scalar]
    regions: dict[int, list[Rect]]
    widenings: list[Rect]

    def area_of(self, index: int) -> Scalar:
        return self.areas.get(index, ZERO)


def charge_map(p_closed: Packing) -> ChargeMap:
    """Partition all points below the closing square's top that lie in no
    square-or-shadow extent, by upward ray shooting to the first widening.

    Ties (several widenings starting at the same height over a column) are
    broken toward the wider slot, then the lower slot index; points on a
    widening's boundary count as inside it.
    """
    pls = p_closed.placements
    if not pls or pls[-1].item.side != ONE:
        raise PackingError("charge_map needs a packing closed with a side-1 square")
    recs = []
    for pl in pls:
        k, _ = round_to_dyadic(pl.item.side)
        slot = slot_of(pl)
        recs.append((pl, k, slot, widening_of(pl), shadowed_extent(pl)))
    xs = sorted({x for rec in recs for region in rec[3:]
                 for x in (region.left, region.right)} | {ZERO, ONE})
    areas: dict[int, Scalar] = {}
    regions: dict[int, list[Rect]] = {}
    ceiling = pls[-1].top
    for x0, x1 in zip(xs, xs[1:]):
        blockers = sorted((e.bottom, e.top) for _, _, _, _, e in recs
                          if e.left <= x0 and e.right >= x1)
        stops = sorted((w.bottom, k, slot.index, pl)
                       for pl, k, slot, w, _ in recs
                       if w.left <= x0 and w.right >= x1)
        cover = ZERO
        gaps = []
        for bottom, top in blockers:
            if bottom > cover:
                gaps.append((cover, bottom))
            if top > cover:
                cover = top
        if cover < ceiling:
            raise PackingError(f"column [{x0},{x1}] not covered up to the top")
        si = 0
        for g_lo, g_hi in gaps:
            while si < len(stops) and stops[si][0] < g_hi:
                si += 1
            if si == len(stops):
                raise PackingError(
                    f"no widening above the gap at [{x0},{x1}] x {g_lo}")
            pl = stops[si][3]
            idx = pl.item.index
            areas[idx] = areas.get(idx, ZERO) + (g_hi - g_lo) * (x1 - x0)
            regions.setdefault(idx, []).append(
                Rect(Interval(x0, x1), Interval(g_lo, g_hi)))
    return ChargeMap(areas, regions, [w for _, _, _, w, _ in recs])


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
