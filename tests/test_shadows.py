import random
from fractions import Fraction as F

from conftest import items, random_items
from strippack.packing import Placement, SquareItem, close_packing, pack
from strippack.shadows import (charge_map, check_slot_bounds, shadow_of,
                               shadowed_extent, slot_of, widening_of)
from strippack.slots import SlotState


def pl(side, x, y, idx=1):
    return Placement(SquareItem(idx, F(side)), F(x), F(y))


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
            from strippack.slots import round_to_dyadic
            k, w = round_to_dyadic(side)
            j = rng.randrange(2 ** k)
            sh = shadow_of(pl(str(side), str(j * w), 0), k)
            assert sh.area == side * side

    def test_extent_contains_shadow_and_square(self):
        for seed in range(30):
            seq = random_items(1000 + seed, 8)
            p = pack(SlotState, seq)
            for q in p.placements:
                from strippack.slots import round_to_dyadic
                k, _ = round_to_dyadic(q.item.side)
                ext = shadowed_extent(q)
                assert ext.left <= q.left and q.right <= ext.right
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
            regions = [r for rects in cm.regions.values() for r in rects]
            for i, a in enumerate(regions):
                for b in regions[i + 1:]:
                    assert not a.interior_overlaps(b)
                for w in cm.widenings:
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
                hit = [idx for idx, rects in cm.regions.items()
                       if any(r.left < x < r.right and r.bottom < y < r.top
                              for r in rects)]
                assert hit == [owner] or (not hit and min(above)[0] == y)


class TestBounds:
    def test_per_square_eight_thirteenths(self):
        for seed in range(25):
            seq = random_items(1400 + seed, 15)
            closed = close_packing(pack(SlotState, seq))
            assert_bounds_hold(check_slot_bounds(closed, charge_map(closed)))

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
