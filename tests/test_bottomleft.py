import heapq
import random
from fractions import Fraction as F

import pytest

from conftest import (assert_grows_linearly, at_level, floor_rect, grown,
                      items, random_items, spans_at)
from strippack import packing as packing_module
from strippack.adversary import adversary_run
from span_reference import _in_open, merge_open_spans, spans_contain
from strippack.bottomleft import BottomLeftState, bl_place_next
from strippack.numbers import ZERO
from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               pack, reachable_positions, verify_packing)


def coords(p):
    return [(pl.x, pl.y) for pl in p.placements]


def full_scan_place(p: Packing, item: SquareItem) -> Placement:
    """BottomLeft by its definition: the floor and every top of the packing
    are candidate levels, grouped anew per call, and at each from the bottom
    up the leftmost spot that is reachable, read from a sweep floored at
    that level, and supported by a top there."""
    a = item.side
    scale, rects = p.lattice(a)
    sa = a.numerator * (scale // a.denominator)
    supports_at: dict[int, list[tuple[int, int]]] = {}
    for l, r, _, t in rects:
        supports_at.setdefault(t, []).append((l - sa, r))
    for y in sorted(supports_at.keys() | {0}):
        reach = spans_at(p, a, F(y, scale))
        if not reach:
            continue
        if y == 0:
            return Placement(item, F(reach[0][0], scale), ZERO)
        supports = merge_open_spans(supports_at[y])
        candidates = sorted({lo for lo, _ in reach}
                            | {lo for lo, _ in supports if lo >= 0})
        for x in candidates:
            if x > scale - sa:
                break
            if spans_contain(reach, x) and _in_open(supports, x):
                return Placement(item, F(x, scale), F(y, scale))
    raise PackingError("no feasible position found")


class FullScanChecked(BottomLeftState):
    """BottomLeft that checks every placement against the full scan."""

    def place(self, item: SquareItem) -> Placement:
        expected = full_scan_place(self.packing, item)
        pl = super().place(item)
        assert pl == expected, item
        return pl


class TestPlacementRule:
    def test_empty_strip_leftmost_bottom(self):
        pl, at = bl_place_next(Packing(), SquareItem(1, F(1, 2)))
        assert (pl.x, pl.y) == (0, 0) and at == (0, 1, 0, 1)

    def test_ground_row_before_stacking(self):
        p = pack(BottomLeftState, items("1/4", "1/4"))
        assert coords(p) == [(0, 0), (F(1, 4), 0)]

    def test_no_ground_slot_rests_on_tops(self):
        p = pack(BottomLeftState, items("1/4", "1/4", "51/100"))
        assert coords(p)[-1] == (0, F(1, 4))


class TestRuns:
    def test_single(self):
        assert pack(BottomLeftState, items(1)).height == 1

    def test_three_square_example(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        assert coords(p) == [(0, 0), (F(1, 2), 0), (0, F(1, 2))]
        assert p.height == F(11, 10)

    def test_adversary_iteration(self):
        p = pack(BottomLeftState, items("1/4", "1/4", "51/100", "1/2", "1/2"))
        assert p.height == F(5, 4) + F(1, 100)

    def test_outputs_verify(self):
        for seed in range(8):
            seq = random_items(seed, 12)
            p = pack(BottomLeftState, seq)
            assert verify_packing(seq, p.placements) is None

    def test_theorem1_bound(self):
        for seed in range(8):
            seq = random_items(100 + seed, 15)
            p = pack(BottomLeftState, seq)
            area = sum(it.side ** 2 for it in seq)
            assert p.height <= F(7, 2) * area + F(5, 2)


class TestLocalOptimality:
    def test_chosen_position_is_lowest_then_leftmost(self):
        for seed in range(6):
            seq = random_items(200 + seed, 8, lo=F(1, 8))
            p = Packing()
            for item in seq:
                pl, at = bl_place_next(p, item)
                self._assert_minimal(p, item, pl)
                p = p.extended(pl, at)

    @staticmethod
    def _assert_minimal(p, item, chosen):
        a = item.side
        levels = sorted({F(0)} | {q.top for q in p.placements})
        for y in levels:
            if y > chosen.y:
                break
            reach = at_level(p, a, y)
            if not reach:
                continue
            supports = [(F(0), F(1) - a)] if y == 0 else merge_open_spans(
                [(q.left - a, q.right) for q in p.placements if q.top == y])
            candidates = sorted({lo for lo, _ in reach}
                                | {lo for lo, _ in supports})
            for x in candidates:
                if x < 0 or x > 1 - a:
                    continue
                ok_reach = spans_contain(reach, x)
                ok_support = y == 0 or any(lo < x < hi for lo, hi in supports)
                if ok_reach and ok_support:
                    assert (y, x) >= (chosen.y, chosen.x), \
                        f"missed lower/lefter spot ({x},{y})"
                    if y < chosen.y:
                        raise AssertionError("found position below the choice")
                    break


class TestFullScanDifferential:
    @pytest.mark.parametrize("seed", range(50))
    def test_corpus(self, seed):
        pack(FullScanChecked, random_items(1_000_000 + seed, 30))

    def test_adversary(self):
        adversary_run(FullScanChecked, 100, F(1, 100))

    def test_ladder_500(self):
        pack(FullScanChecked, random_items("ladder:1:500", 500))

    def test_only_top_one_scale_above_the_seal(self):
        # the side-1 square seals the sweep at its own top, 25/16; its
        # bottom, 9/16, is exactly one lattice scale below that level and
        # is the only square the third one can rest on
        seq = items("9/16", 1, "1/8")
        p = pack(FullScanChecked, seq)
        assert coords(p)[-1] == (0, F(25, 16))
        two = grown(p.placements[:2])
        assert reachable_positions(two, floor_rect(two, F(1, 8))) == \
            (25, [(0, 14)])
        assert two.units(F(1)) == [16]


def gravity_packing(rng: random.Random, n: int, grid: int) -> Packing:
    """n squares of sides k/grid, each dropped at a random x on the grid
    onto the highest top beneath it: supported, but not BottomLeft's."""
    pls: list[Placement] = []
    for i in range(1, n + 1):
        k = rng.randint(1, grid)
        a, x = F(k, grid), F(rng.randint(0, grid - k), grid)
        y = max((pl.top for pl in pls if pl.left < x + a and x < pl.right),
                default=ZERO)
        pls.append(Placement(SquareItem(i, a), x, y))
    return grown(pls)


class TestUnbuiltPackings:
    def test_gravity_drops_match_the_full_scan(self):
        """Above packings that BottomLeft did not build the search finds
        the full scan's spot: 300 seeded gravity-drop packings, six sides
        each."""
        rng = random.Random("gravity-drop")
        sides = [F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
        for case in range(300):
            p = gravity_packing(rng, rng.randint(2, 8), rng.choice([4, 6, 8]))
            for a in sides:
                item = SquareItem(len(p.placements) + 1, a)
                assert bl_place_next(p, item)[0] == full_scan_place(p, item), \
                    (case, a)


class TestSweepGrowth:
    """The sweep is linear on the random ladder: ``reachable_positions``
    pushes 1,509 events while BottomLeft packs n = 250 squares, 5,431 at
    n = 1000 and 25,583 at n = 4000.  Work quadratic in n would give 16
    times as much at 4n."""

    def test_events_pushed(self, monkeypatch):
        def events(n: int) -> int:
            pushed = 0

            def counted(heap, event):
                nonlocal pushed
                pushed += 1
                heapq.heappush(heap, event)

            with monkeypatch.context() as patch:
                patch.setattr(packing_module, "heappush", counted)
                pack(BottomLeftState, random_items(f"ladder:1:{n}", n))
            return pushed

        small, _ = assert_grows_linearly(events, 250)
        assert small > 0
