from fractions import Fraction as F

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (at_level, floor_rect, grid_bfs_reachable, grown, items,
                      packing_of, random_items, rect_on, rest_height)
from span_reference import (intersect_spans, merge_spans,
                            reference_reachable, spans_contain, spans_meet,
                            subtract_spans_open)
import strippack.packing
from strippack.bottomleft import BottomLeftState
from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               _free_meeting, check_step,
                               is_supported, is_tetris_reachable, pack,
                               reachable_positions, verify_packing)


class TestRestHeight:
    def test_empty(self):
        assert rest_height(Packing(), F(0), F(1, 2)) == 0

    def test_boundary_contact_does_not_block(self):
        p = packing_of([("1/2", 0, 0)])
        assert rest_height(p, F(1, 2), F(1, 2)) == 0

    def test_overlapping_both_tops(self):
        p = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0)])
        assert rest_height(p, F(0), F(3, 5)) == F(1, 2)

    def test_out_of_range(self):
        with pytest.raises(PackingError):
            rest_height(Packing(), F(3, 4), F(1, 2))

    def test_antitone_in_obstacles(self):
        for seed in range(10):
            p = pack(BottomLeftState, random_items(seed, 6))
            sub = grown(p.placements[:3])
            a = F(1, 4)
            for x in (F(0), F(1, 4), F(1, 2), F(3, 4)):
                assert rest_height(sub, x, a) <= rest_height(p, x, a)


class TestSupport:
    def test_strip_bottom(self):
        p = Packing()
        assert is_supported(p, rect_on(p, Placement(SquareItem(1, F(1)),
                                                    F(0), F(0))))

    def test_positive_overlap(self):
        p = packing_of([("1/2", 0, 0)])
        pl = Placement(SquareItem(2, F(1, 4)), F(1, 4), F(1, 2))
        assert is_supported(p, rect_on(p, pl))

    def test_corner_contact_is_not_support(self):
        p = packing_of([("1/2", 0, 0)])
        pl = Placement(SquareItem(2, F(1, 4)), F(1, 2), F(1, 2))
        assert not is_supported(p, rect_on(p, pl))


class TestReachability:
    def test_empty_strip_full_slab(self):
        assert at_level(Packing(), F(1, 2), F(0)) == [(F(0), F(1, 2))]
        assert at_level(Packing(), F(1, 2), F(17, 3)) == [(F(0), F(1, 2))]

    def test_slide_along_touching_boundary(self):
        p = packing_of([("1/2", 0, 0)])
        assert at_level(p, F(1, 2), F(0)) == [(F(1, 2), F(1, 2))]
        pl = Placement(SquareItem(2, F(1, 2)), F(1, 2), F(0))
        assert is_tetris_reachable(p, rect_on(p, pl))

    def test_slide_under_a_square_at_the_ground(self):
        # the half square's bottom is a above the strip floor: the quarter
        # slides under it along the floor, though not in the slab above
        p = packing_of([("1/4", 0, 0), ("1/2", 0, "1/4")])
        a, step = F(1, 4), F(1, 8)
        spans = at_level(p, a, F(0))
        assert spans == [(F(1, 4), F(3, 4))]
        third = Placement(SquareItem(3, a), F(1, 4), F(0))
        assert verify_packing([pl.item for pl in p.placements] + [third.item],
                              list(p.placements) + [third]) is None
        reach, nx, _ = grid_bfs_reachable(p, a, step)
        assert {ix for ix in range(nx + 1) if spans_contain(spans, ix * step)} \
            == {ix for ix, iy in reach if iy == 0} == set(range(2, nx + 1))

    def test_narrow_gap_floor_unreachable(self):
        p = packing_of([("2/5", 0, 0), ("2/5", 0, "2/5"),
                        ("2/5", "3/5", 0), ("2/5", "3/5", "2/5")])
        pl = Placement(SquareItem(5, F(1, 4)), F(9, 20), F(0))
        assert not is_tetris_reachable(p, rect_on(p, pl))

    def test_sealed_lid(self):
        p = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0), (1, 0, "1/2")])
        below = Placement(SquareItem(4, F(1, 4)), F(0), F(1, 2))
        above = Placement(SquareItem(4, F(1, 4)), F(0), F(3, 2))
        assert not is_tetris_reachable(p, rect_on(p, below))
        assert is_tetris_reachable(p, rect_on(p, above))

    def test_side_one_needs_clear_column(self):
        p = packing_of([("1/4", "1/2", 0)])
        ground = Placement(SquareItem(2, F(1)), F(0), F(0))
        on_top = Placement(SquareItem(2, F(1)), F(0), F(1, 4))
        assert not is_tetris_reachable(p, rect_on(p, ground))
        assert is_tetris_reachable(p, rect_on(p, on_top))

    def test_monotone_under_obstacle_removal(self):
        seq = random_items(3, 8, lo=F(1, 8), hi=F(1, 2))
        p = pack(BottomLeftState, seq)
        smaller = grown(p.placements[:-1])
        a = F(3, 16)
        for y in [pl.top for pl in p.placements] + [F(0)]:
            for lo, hi in at_level(p, a, y):
                spans = at_level(smaller, a, y)
                assert any(slo <= lo and hi <= shi for slo, shi in spans)


# open shadows on a small lattice: degenerate, touching and nested ones
# come up often, and ends run past both sides of [0, w]
ends = st.integers(-4, 24)
opens_lists = st.lists(st.tuples(ends, ends).map(sorted).map(tuple),
                       max_size=8)
widths = st.integers(0, 20)


@st.composite
def closed_lists(draw):
    """A sorted list of disjoint closed spans, some single points."""
    pts = sorted(draw(st.lists(ends, max_size=8)))
    return merge_spans([(pts[i], pts[i + 1])
                        for i in range(0, len(pts) - 1, 2)])


class TestSpanPasses:
    """``_free_meeting``, the sweep's one span pass over a sorted active
    set, against the reference span algebra."""

    @given(opens_lists, widths)
    @settings(max_examples=400)
    @example([], 0)
    @example([(0, 5)], 5)                       # one open over all of [0, w]
    @example([(2, 5), (5, 9)], 12)              # touching: 5 stays free
    @example([(1, 9), (3, 4), (3, 3)], 10)      # nested and degenerate
    @example([(-3, 0), (10, 14), (12, 30)], 10)     # touching 0 and w
    @example([(-5, -1), (11, 20)], 10)          # wholly outside
    def test_free_is_subtract_open(self, opens, w):
        assert _free_meeting(sorted(opens), w, [(0, w)]) == \
            subtract_spans_open([(0, w)], opens)

    @given(st.lists(st.tuples(st.fractions(-1, 2, max_denominator=12),
                              st.fractions(-1, 2, max_denominator=12))
                    .map(sorted).map(tuple), max_size=6),
           st.fractions(0, 1, max_denominator=12))
    @settings(max_examples=200)
    def test_free_on_fractions(self, opens, w):
        assert _free_meeting(sorted(opens), w, [(0, w)]) == \
            subtract_spans_open([(0, w)], opens)

    @given(opens_lists, widths, closed_lists())
    @settings(max_examples=400)
    @example([(2, 5), (5, 9)], 12, [(5, 5)])    # marks a single point
    @example([(2, 5)], 12, [(0, 2), (5, 7)])    # marks touch both ends
    @example([(2, 5)], 12, [(-3, -1)])          # marks end before the first
    def test_meeting_is_spans_meet_filter(self, opens, w, marks):
        assert _free_meeting(sorted(opens), w, marks) == \
            [s for s in subtract_spans_open([(0, w)], opens)
             if spans_meet([s], marks)]

    @given(opens_lists, opens_lists, widths, closed_lists())
    @settings(max_examples=400)
    def test_sweep_step_needs_no_entry(self, active, entering, w, marks):
        """A level's spans below meet the spans at it exactly where they
        meet the part of those that is free below as well."""
        r_at = _free_meeting(sorted(active), w, marks)
        f_below = subtract_spans_open([(0, w)], active + entering)
        entry = intersect_spans(r_at, f_below)
        assert _free_meeting(sorted(active + entering), w, r_at) == \
            [s for s in f_below if spans_meet([s], entry)]

    @given(opens_lists, opens_lists, widths, closed_lists())
    @settings(max_examples=400)
    def test_a_level_without_some_event_needs_no_pass(self, stay, leave, w,
                                                      marks):
        """The two passes the sweep leaves out: the pass over the same
        opens keeps spans it found, and once opens leave, every span found
        before meets one found after."""
        spans = _free_meeting(sorted(stay + leave), w, marks)
        assert _free_meeting(sorted(stay + leave), w, spans) == spans
        if spans:
            assert _free_meeting(sorted(stay), w, spans)


class TestSweepAgainstReference:
    """``reachable_positions`` against the sweep that ran both span passes
    at every level (``span_reference.reference_reachable``): the same
    ``(level, spans)`` before each arrival of a BottomLeft packing, floored
    at 0 as the BottomLeft search floors it and at the arrival's own bottom
    as the verifier's fallback does."""

    @staticmethod
    def assert_every_arrival_agrees(seq):
        p = Packing()
        for pl in pack(BottomLeftState, seq).placements:
            for floor in (F(0), pl.y):
                at = floor_rect(p, pl.item.side, floor)
                assert reachable_positions(p, at) == \
                    reference_reachable(p, at), (pl, floor)
            p = p.extended(pl.item, rect_on(p, pl))

    @pytest.mark.parametrize("n", [1, 2, 60, 200])
    def test_tiny_row(self, n):
        self.assert_every_arrival_agrees(
            [SquareItem(i, F(1, 2 ** 20)) for i in range(1, n + 1)])

    def test_unit_fractions(self):
        # the 1/k prefix: deep stacks of ever smaller squares under
        # overhangs, where the sweep walks hundreds of levels
        self.assert_every_arrival_agrees(
            [SquareItem(k, F(1, k)) for k in range(1, 121)])

    @pytest.mark.parametrize("seed", range(20))
    def test_corpus(self, seed):
        self.assert_every_arrival_agrees(random_items(1_000_000 + seed, 30))

    @pytest.mark.parametrize("n", [250, 1000])
    def test_ladder(self, n):
        self.assert_every_arrival_agrees(random_items(f"ladder:1:{n}", n))


class TestBfsOracleAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_dyadic_agreement(self, seed):
        import random
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        seq = [SquareItem(i, F(rng.randint(1, 16), 16)) for i in range(1, n + 1)]
        p = pack(BottomLeftState, seq)
        a = F(rng.randint(1, 16), 16)
        step = F(1, 64)
        reach, nx, ny = grid_bfs_reachable(p, a, step)
        for iy in range(ny + 1):
            spans = at_level(p, a, iy * step)
            k = 0
            for ix in range(nx + 1):
                x = ix * step
                while k < len(spans) and spans[k][1] < x:
                    k += 1
                analytic = k < len(spans) and spans[k][0] <= x <= spans[k][1]
                assert analytic == ((ix, iy) in reach), \
                    f"disagree at x={x} y={iy * step}"


class TestVerifier:
    def test_single_square_passes(self):
        seq = items(1)
        pls = [Placement(seq[0], F(0), F(0))]
        assert verify_packing(seq, pls) is None

    def test_overlap_detected(self):
        seq = items("1/2", "1/2")
        pls = [Placement(seq[0], F(0), F(0)),
               Placement(seq[1], F(1, 4), F(0))]
        assert verify_packing(seq, pls) == "overlap at step 2"

    def test_floating_detected(self):
        seq = items("1/2")
        pls = [Placement(seq[0], F(0), F(1, 2))]
        assert verify_packing(seq, pls) == "unsupported at step 1"

    def test_unreachable_detected(self):
        # two pillars, a sealing lid, then a square inside the cavity
        seq = items("1/4", "1/4", 1, "1/4")
        pls = [Placement(seq[0], F(0), F(0)),
               Placement(seq[1], F(3, 4), F(0)),
               Placement(seq[2], F(0), F(1, 4)),
               Placement(seq[3], F(3, 8), F(0))]
        assert verify_packing(seq, pls) == "unreachable at step 4"

    def test_out_of_strip_is_overlap_class(self):
        seq = items("1/2")
        pls = [Placement(seq[0], F(3, 4), F(0))]
        assert verify_packing(seq, pls) == "overlap at step 1"

    def test_mismatch_rejected(self):
        seq = items("1/2")
        with pytest.raises(PackingError):
            verify_packing(seq, [])

    def test_item_mismatch_names_the_index(self):
        # equal lengths, so only the per-item comparison can reject them
        seq = items("1/2", "1/4")
        first = Placement(seq[0], F(0), F(0))
        for other in (SquareItem(2, F(1, 8)), SquareItem(3, F(1, 4))):
            pls = [first, Placement(other, F(1, 2), F(0))]
            with pytest.raises(PackingError,
                               match=r"^item mismatch at index 2$"):
                verify_packing(seq, pls)

    def test_stops_at_first_failure(self, monkeypatch):
        # every step goes through check_step, which reads the skyline
        # first and runs the rules only where it cannot settle the step
        calls = []
        check = strippack.packing.check_step

        def counted(sofar, at):
            calls.append(at)
            return check(sofar, at)

        monkeypatch.setattr(strippack.packing, "check_step", counted)
        seq = random_items(3, 100)
        packed = pack(BottomLeftState, seq).placements
        assert verify_packing(seq, packed) is None
        assert len(calls) == 100
        pls = list(packed)
        first = pls[0]
        pls[1] = Placement(pls[1].item, first.x, first.y)   # onto square 1
        calls.clear()
        assert verify_packing(seq, pls) == "overlap at step 2"
        assert len(calls) == 2

    def test_step_stops_at_first_broken_rule(self, monkeypatch):
        def never(*args):
            raise AssertionError("a later rule was decided")

        p = packing_of([("1/2", 0, 0)])
        monkeypatch.setattr(strippack.packing, "is_tetris_reachable", never)
        floating = Placement(SquareItem(2, F(1, 4)), F(1, 2), F(1, 4))
        assert check_step(p, rect_on(p, floating)) == "unsupported"
        monkeypatch.setattr(strippack.packing, "is_supported", never)
        overlapping = Placement(SquareItem(2, F(1, 4)), F(1, 4), F(1, 4))
        assert check_step(p, rect_on(p, overlapping)) == "overlap"

    def test_height(self):
        assert Packing().height == 0
        assert packing_of([(1, 0, 0)]).height == 1
        assert packing_of([("1/2", 0, 0), ("1/2", 0, "1/2")]).height == 1
