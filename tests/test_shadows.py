import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from conftest import (corpus_items, deep_items, grown, items,
                      nondyadic_items, random_items)
from strippack.geometry import Rect
from strippack.packing import (Check, Packing, PackingError, Placement,
                               SquareItem, close_packing, pack)
from strippack.shadows import (ChargeMap, _extent_and_widening, charge_map,
                               check_slot_bounds)
from strippack.slots import SlotState, round_to_dyadic

ZERO, ONE = F(0), F(1)


def pl(side, x, y, idx=1):
    return Placement(SquareItem(idx, F(side)), F(x), F(y))


# ---------------------------------------------------------------------------
# the Fraction charge map that re-filtered and re-sorted every square for
# each x-column, kept as the reference for the lattice sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shadow:
    owner: Placement
    pieces: tuple[Rect, ...]       # left and/or right enlargement, clipped
    delta: F
    delta_prime: F

    @property
    def area(self) -> F:
        return sum((r.width * r.height for r in self.pieces), ZERO)


class Slot(NamedTuple):
    """The level-k slot [index 2^-k, (index+1) 2^-k]."""

    k: int
    index: int

    @property
    def left(self) -> F:
        return F(self.index, 2 ** self.k)

    @property
    def right(self) -> F:
        return F(self.index + 1, 2 ** self.k)


def slot_of(pl: Placement) -> Slot:
    """The slot a slot-strategy placement was dropped in."""
    k, w = round_to_dyadic(pl.item.side)
    index = pl.x / w
    if index.denominator != 1:
        raise PackingError(f"placement at {pl.x} is not on a level-{k} slot")
    return Slot(k, int(index))


def shadow_of(pl: Placement, k: int) -> Shadow:
    a = pl.item.side
    y, right = (pl.y, pl.top), pl.x + a
    if k == 0:
        # sides above 1/2 enlarge to the right only, clipped to the strip
        hi = min(ONE, right + a)
        piece = Rect(right, hi, *y)
        return Shadow(pl, (piece,) if hi > right else (), a, a)
    slot = Slot(k, int(pl.x / F(1, 2 ** k)))
    parent_right = Slot(k - 1, slot.index // 2).right
    delta = parent_right - right
    delta_prime = min(a, delta)
    pieces = []
    if delta_prime > ZERO:
        pieces.append(Rect(right, right + delta_prime, *y))
    left = a - delta_prime
    if left > ZERO:
        pieces.append(Rect(pl.x - left, pl.x, *y))
    return Shadow(pl, tuple(pieces), delta, delta_prime)


def shadowed_extent(pl: Placement) -> Rect:
    """Square union shadow at the owner's y-range, clipped to the strip."""
    k, _ = round_to_dyadic(pl.item.side)
    shadow = shadow_of(pl, k)
    lo, hi = pl.x, pl.x + pl.item.side
    for piece in shadow.pieces:
        lo = min(lo, piece.left)
        hi = max(hi, piece.right)
    return Rect(max(lo, ZERO), min(hi, ONE), pl.y, pl.top)


def widening_of(pl: Placement) -> Rect:
    """(square union shadow) clipped to the square's own slot."""
    ext = shadowed_extent(pl)
    slot = slot_of(pl)
    return Rect(max(ext.left, slot.left), min(ext.right, slot.right),
                pl.y, pl.top)


def reference_charge_map(p_closed: Packing):
    """(areas, regions, widenings) with Fraction ``Rect`` regions."""
    pls = p_closed.placements
    if not pls or pls[-1].item.side != ONE:
        raise PackingError("charge_map needs a packing closed with a side-1 square")
    recs = []
    for q in pls:
        k, _ = round_to_dyadic(q.item.side)
        slot = slot_of(q)
        recs.append((q, k, slot, widening_of(q), shadowed_extent(q)))
    xs = sorted({x for rec in recs for region in rec[3:]
                 for x in (region.left, region.right)} | {ZERO, ONE})
    areas: dict[int, F] = {}
    regions: dict[int, list[Rect]] = {}
    ceiling = pls[-1].top
    for x0, x1 in zip(xs, xs[1:]):
        blockers = sorted((e.bottom, e.top) for _, _, _, _, e in recs
                          if e.left <= x0 and e.right >= x1)
        stops = sorted((w.bottom, k, slot.index, q)
                       for q, k, slot, w, _ in recs
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
            idx = stops[si][3].item.index
            areas[idx] = areas.get(idx, ZERO) + (g_hi - g_lo) * (x1 - x0)
            regions.setdefault(idx, []).append(
                Rect(x0, x1, g_lo, g_hi))
    return areas, regions, [w for _, _, _, w, _ in recs]


def as_rect(scale: int, v) -> Rect:
    """A lattice ``(l, r, b, t)`` at ``scale`` as the exact Fraction rect."""
    l, r, b, t = v
    return Rect(F(l, scale), F(r, scale), F(b, scale), F(t, scale))


def region_rects(cm: ChargeMap, closed: Packing) -> dict[int, list[Rect]]:
    """The charged regions as Fraction rects, on the closed packing's
    lattice, which ``charge_map`` fitted."""
    scale = closed.lattice()[0]
    return {idx: [as_rect(scale, v) for v in vs]
            for idx, vs in cm.regions.items()}


def lattice_widenings(closed: Packing) -> list[Rect]:
    """The widenings ``_extent_and_widening`` gives on the closed packing's
    lattice, which ``charge_map`` fitted."""
    scale, rects = closed.lattice()
    return [as_rect(scale, _extent_and_widening(
                round_to_dyadic(q.item.side)[0], rect, scale)[1])
            for q, rect in zip(closed.placements, rects)]


def assert_bounds_hold(checks):
    assert all(c.ok for c in checks), "\n".join(c.line() for c in checks)


class TestShadow:
    def test_half_at_origin_all_right(self):
        sh = shadow_of(pl("1/2", 0, 0), 1)
        assert [(p.left, p.right) for p in sh.pieces] == [(F(1, 2), F(1))]
        assert sh.area == F(1, 4)
        assert (sh.delta, sh.delta_prime) == (F(1, 2), F(1, 2))

    def test_quarter_in_right_child_all_left(self):
        sh = shadow_of(pl("1/4", "1/4", 0), 2)
        assert [(p.left, p.right) for p in sh.pieces] == [(F(0), F(1, 4))]
        assert (sh.delta, sh.delta_prime) == (F(0), F(0))

    def test_unit_square_clipped_empty(self):
        sh = shadow_of(pl(1, 0, 0), 0)
        assert sh.pieces == ()
        w = widening_of(pl(1, 0, 0))
        assert (w.left, w.right) == (F(0), F(1))

    def test_shadow_area_equals_square_below_half(self):
        for seed in range(30):
            rng = random.Random(seed)
            side = F(rng.randint(1, 2 ** 19), 2 ** 20)   # at most 1/2
            k, w = round_to_dyadic(side)
            j = rng.randrange(2 ** k)
            sh = shadow_of(pl(str(side), str(j * w), 0), k)
            assert sh.area == side * side

    def test_extent_contains_shadow_and_square(self):
        for seed in range(30):
            seq = random_items(1000 + seed, 8)
            p = pack(SlotState, seq)
            for q in p.placements:
                k, _ = round_to_dyadic(q.item.side)
                ext = shadowed_extent(q)
                assert ext.left <= q.x and q.x + q.item.side <= ext.right
                for piece in shadow_of(q, k).pieces:
                    assert ext.left <= piece.left and piece.right <= ext.right

    def test_widening_is_extent_clipped_to_own_slot(self):
        for seed in range(20):
            seq = random_items(1100 + seed, 8)
            p = pack(SlotState, seq)
            for q in p.placements:
                slot = slot_of(q)
                w = widening_of(q)
                ext = shadowed_extent(q)
                assert w.left == max(ext.left, slot.left)
                assert w.right == min(ext.right, slot.right)
                # the widening always spans the whole slot at the owner's level
                assert w.left == slot.left and w.right == slot.right \
                    or q.item.side > F(1, 2)


class TestChargeMap:
    def test_single_unit_square_nothing_charged(self):
        cm = charge_map(close_packing(pack(SlotState, items(1))))
        assert cm.areas == {}

    def test_ground_row_nothing_charged(self):
        cm = charge_map(close_packing(pack(SlotState, items("33/64"))))
        assert cm.areas == {}

    def test_three_square_hand_instance(self):
        # two 5/16 squares fill both half slots; the 5/8 square rests on
        # them and its widening starts exactly at their tops: no gaps
        p = pack(SlotState, items("5/16", "5/16", "5/8"))
        cm = charge_map(close_packing(p))
        assert cm.areas == {}

    def test_band_beside_a_half_slot_is_charged(self):
        # one half-slot square on a full-width square leaves a band beside
        # it, charged to the k=0 square above
        p = pack(SlotState, items("11/16", "3/8", "9/16"))
        closed = close_packing(p)
        cm = charge_map(closed)
        total = sum(cm.areas.values())
        assert total > 0
        assert_bounds_hold(check_slot_bounds(closed, cm))

    def test_coverage_and_disjointness(self):
        for seed in range(15):
            seq = random_items(1200 + seed, 12)
            closed = close_packing(pack(SlotState, seq))
            cm = charge_map(closed)
            regions = [r for rects in region_rects(cm, closed).values()
                       for r in rects]
            widenings = lattice_widenings(closed)
            for i, a in enumerate(regions):
                for b in regions[i + 1:]:
                    assert not a.interior_overlaps(b)
                for w in widenings:
                    assert not a.interior_overlaps(w)

    def test_pointwise_oracle(self):
        # sample rational points; recompute their charge from the raw
        # definition and compare with the reported regions
        for seed in range(6):
            seq = random_items(1300 + seed, 10)
            closed = close_packing(pack(SlotState, seq))
            cm = charge_map(closed)
            stops = [(q, widening_of(q)) for q in closed.placements]
            extents = [shadowed_extent(q) for q in closed.placements]
            rng = random.Random(seed)
            for _ in range(60):
                x = F(rng.randint(1, 2 ** 12 - 1), 2 ** 12)
                y = F(rng.randint(0, int(closed.height * 64) - 1), 64) \
                    + F(1, 128)
                if any(e.left < x < e.right and e.bottom < y < e.top
                       for e in extents):
                    continue    # shielded by a square or its shadow
                above = [(w.bottom, q.item.index) for q, w in stops
                         if w.left < x < w.right and w.bottom >= y]
                if not above:
                    continue
                owner = min(above)[1]
                hit = [idx for idx, rects in region_rects(cm, closed).items()
                       if any(r.left < x < r.right and r.bottom < y < r.top
                              for r in rects)]
                assert hit == [owner] or (not hit and min(above)[0] == y)


class TestBounds:
    def test_per_square_eight_thirteenths(self):
        for seed in range(25):
            seq = random_items(1400 + seed, 15)
            closed = close_packing(pack(SlotState, seq))
            assert_bounds_hold(check_slot_bounds(closed, charge_map(closed)))

    def test_charge_above_the_bound_fails_per_square(self):
        # square 1 has side 1/2, so its bound is 8/13 * 1/4 = 2/13
        closed = close_packing(pack(SlotState, items("1/2")))
        scale = closed.lattice()[0]
        checks = check_slot_bounds(
            closed, ChargeMap({1: F(1, 4)}, {}, {1: scale * scale // 4}))
        assert [c.line() for c in checks[:2]] == [
            "CHECK slot-per-square-1 FAIL 1/4 <= 2/13",
            "CHECK slot-per-square FAIL max |F|/a^2 = 1 <= 8/13"]

    def test_regression_k0_square_over_half_slot(self):
        # a 1/2-rounded square leaves a wide band beside it under a k=0
        # square; the bound only holds because widenings cover shadows
        sides = []
        rng = random.Random(9)
        n = rng.randint(1, 30)
        for _ in range(n):
            sides.append(F(rng.randint(2 ** 20 // 64, 2 ** 20), 2 ** 20))
        seq = [SquareItem(i, s) for i, s in enumerate(sides, 1)]
        closed = close_packing(pack(SlotState, seq))
        assert_bounds_hold(check_slot_bounds(closed, charge_map(closed)))

    def test_killer_instance_bounds_hold(self):
        side = F(1, 8) + F(1, 128)
        seq = items(*[str(side)] * 32)
        closed = close_packing(pack(SlotState, seq))
        assert_bounds_hold(check_slot_bounds(closed, charge_map(closed)))


def killer_32():
    return items(*[str(F(1, 8) + F(1, 128))] * 32)


DIFFERENTIAL = (
    [(f"corpus:{seed}", lambda seed=seed: corpus_items(seed))
     for seed in range(50)]
    + [(f"large:{i}", lambda i=i: random_items(f"large:{i}", 100))
       for i in range(3)]
    + [(f"slot-deep:{i}", lambda i=i: deep_items(i)) for i in range(7)]
    + [(f"nondyadic:{seed}", lambda seed=seed: nondyadic_items(seed))
       for seed in range(3)]
    + [("killer:32", killer_32),
       # widenings of two levels start at the same height over a gap
       ("tie:1", lambda: items("1/16", "3/4", "9/16", "1/16", "5/8", "11/16",
                               "1/4", "5/8", "7/16", "15/16", "1")),
       ("tie:2", lambda: items("1/32", "3/4", "1/32", "7/32", "5/8",
                               "27/32", "11/32", "31/32", "3/16"))])


class TestAgainstReference:
    """The lattice sweep gives exactly the Fraction column scan's charge
    map: the same areas in the same key order, and the same regions and
    widenings once their lattice integers are divided by the scale."""

    @pytest.mark.parametrize("seq", [seq for _, seq in DIFFERENTIAL],
                             ids=[name for name, _ in DIFFERENTIAL])
    def test_equal_to_reference(self, seq):
        closed = close_packing(pack(SlotState, seq()))
        cm = charge_map(closed)
        areas, regions, widenings = reference_charge_map(closed)
        assert list(cm.areas.items()) == list(areas.items())
        assert list(region_rects(cm, closed).items()) == list(regions.items())
        assert lattice_widenings(closed) == widenings


# ---------------------------------------------------------------------------
# the Fraction bounds check that the lattice one replaced, kept as its
# reference, and charge maps raised or emptied to break each check
# ---------------------------------------------------------------------------

EIGHT_THIRTEENTHS = F(8, 13)


def reference_slot_bounds(p_closed: Packing, areas: dict) -> list[Check]:
    """``check_slot_bounds`` on the exact charged areas, in Fractions."""
    checks = []
    for q in p_closed.placements:
        charged = areas.get(q.item.index, ZERO)
        limit = EIGHT_THIRTEENTHS * q.item.side ** 2
        if charged > limit:
            checks.append(Check(f"slot-per-square-{q.item.index}", False,
                                str(charged), "<=", str(limit)))
    worst = max((areas.get(q.item.index, ZERO) / q.item.side ** 2
                 for q in p_closed.placements), default=ZERO)
    checks.append(Check("slot-per-square", worst <= EIGHT_THIRTEENTHS,
                        f"max |F|/a^2 = {worst}", "<=", "8/13"))
    open_pls = p_closed.placements[:-1]
    area_sum = sum((q.item.side ** 2 for q in open_pls), ZERO)
    height = max((q.top for q in open_pls), default=ZERO)
    charge_sum = sum(areas.values(), ZERO)
    checks.append(Check("slot-height-decomposition",
                        height <= 2 * area_sum + charge_sum,
                        str(height), "<=", f"2*{area_sum} + {charge_sum}"))
    closed_sum = area_sum + ONE
    checks.append(Check("theorem2",
                        height <= 2 * area_sum + EIGHT_THIRTEENTHS * closed_sum,
                        str(height), "<=", f"2*{area_sum} + 8/13*{closed_sum}"))
    return checks


def with_sums(closed: Packing, sums: dict[int, int]) -> ChargeMap:
    """A charge map of the given lattice sums and their exact areas."""
    unit = closed.lattice()[0] ** 2
    return ChargeMap({i: F(c, unit) for i, c in sums.items()}, {}, sums)


def at_the_bound(closed: Packing, over: int, first_only=False) -> ChargeMap:
    """Each square (or the first only) charged the most lattice units
    within 8/13 of its area, plus ``over``."""
    pairs = list(zip(closed.placements, closed.lattice()[1]))
    return with_sums(closed, {q.item.index: 8 * (r - l) ** 2 // 13 + over
                              for q, (l, r, _, _) in pairs[:1 if first_only
                                                           else None]})


BROKEN_MAPS = {
    "charge-map": lambda closed: charge_map(closed),
    "at-the-bound": lambda closed: at_the_bound(closed, 0),
    "first-over": lambda closed: at_the_bound(closed, 1, first_only=True),
    "all-over": lambda closed: at_the_bound(closed, 1),
    "uncharged": lambda closed: with_sums(closed, {}),
}


def lines(checks: list[Check]) -> list[str]:
    return [c.line() for c in checks]


class TestChecksAgainstReference:
    """``check_slot_bounds`` decides on lattice integers and prints what
    the Fraction checks printed: the same lines, FAIL lines included, on
    the charge map and on maps charged at 8/13 of each area, one unit past
    it, or not at all."""

    @pytest.mark.parametrize("seq", [seq for _, seq in DIFFERENTIAL],
                             ids=[name for name, _ in DIFFERENTIAL])
    def test_equal_to_reference(self, seq):
        closed = close_packing(pack(SlotState, seq()))
        for name, make in BROKEN_MAPS.items():
            cm = make(closed)
            assert lines(check_slot_bounds(closed, cm)) == \
                lines(reference_slot_bounds(closed, cm.areas)), name

    def test_each_check_fails(self):
        """Every check fails on one of the maps: a square past 8/13 fails
        its own line and ``slot-per-square``, no charge fails the height
        decomposition, and a square floating at height 3 fails theorem 2
        whatever it is charged."""
        tall = close_packing(grown([pl("1/4", 0, 3)]))
        failed = Counter()
        for seq in (killer_32(), corpus_items(0)):
            closed = close_packing(pack(SlotState, seq))
            for name in ("first-over", "uncharged"):
                failed.update(c.name for c in check_slot_bounds(
                    closed, BROKEN_MAPS[name](closed)) if not c.ok)
        for name, make in BROKEN_MAPS.items():
            cm = make(tall)
            got = check_slot_bounds(tall, cm)
            assert lines(got) == lines(reference_slot_bounds(tall, cm.areas))
            failed.update(c.name for c in got if not c.ok)
        assert {"slot-per-square-1", "slot-per-square",
                "slot-height-decomposition", "theorem2"} <= set(failed)
        # theorem 2 holds with equality at height 81/104, and fails above
        for y, ok in ((F(55, 104), True), (F(55, 104) + F(1, 2 ** 20), False)):
            closed = close_packing(grown([pl("1/4", 0, y)]))
            cm = charge_map(closed)
            got = check_slot_bounds(closed, cm)
            assert lines(got) == lines(reference_slot_bounds(closed, cm.areas))
            assert got[-1].ok == ok
        assert lines(check_slot_bounds(tall, charge_map(tall))) == [
            "CHECK slot-per-square-1 FAIL 3/4 <= 1/26",
            "CHECK slot-per-square-2 FAIL 19/8 <= 8/13",
            "CHECK slot-per-square FAIL max |F|/a^2 = 12 <= 8/13",
            "CHECK slot-height-decomposition PASS 13/4 <= 2*1/16 + 25/8",
            "CHECK theorem2 FAIL 13/4 <= 2*1/16 + 8/13*17/16"]


FRACTION_OPS = ("__add__", "__mul__", "__truediv__", "__pow__", "__lt__",
                "__le__", "__gt__", "__ge__")


def fraction_ops(monkeypatch, run) -> Counter:
    """The calls of Fraction's arithmetic and comparisons while ``run()``
    runs; building and printing a Fraction is not counted."""
    calls = Counter()
    with monkeypatch.context() as patch:
        for op in FRACTION_OPS:
            def counted(*args, _op=getattr(F, op), _name=op):
                calls[_name] += 1
                return _op(*args)
            patch.setattr(F, op, counted)
        run()
    return calls


class TestNoFractionArithmetic:
    @pytest.mark.parametrize("i", range(3))
    def test_bounds_of_the_large_panel(self, i, monkeypatch):
        closed = close_packing(pack(SlotState, random_items(f"large:{i}", 100)))
        cm = charge_map(closed)
        assert not fraction_ops(monkeypatch,
                                lambda: check_slot_bounds(closed, cm))
        # the counter sees the operations of the Fraction checks
        assert fraction_ops(monkeypatch,
                            lambda: reference_slot_bounds(closed, cm.areas))
