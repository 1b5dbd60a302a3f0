from fractions import Fraction as F

import pytest

from conftest import grid_bfs_reachable, items, packing_of, random_items
from strippack.bottomleft import BottomLeftState
from strippack.geometry import spans_contain
from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               is_supported, is_tetris_reachable, pack,
                               reachable_positions, rest_height,
                               verify_packing)


class TestRestHeight:
    def test_empty(self):
        assert rest_height(Packing.empty(), F(0), F(1, 2)) == 0

    def test_boundary_contact_does_not_block(self):
        p = packing_of([("1/2", 0, 0)])
        assert rest_height(p, F(1, 2), F(1, 2)) == 0

    def test_overlapping_both_tops(self):
        p = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0)])
        assert rest_height(p, F(0), F(3, 5)) == F(1, 2)

    def test_out_of_range(self):
        with pytest.raises(PackingError):
            rest_height(Packing.empty(), F(3, 4), F(1, 2))

    def test_antitone_in_obstacles(self):
        for seed in range(10):
            p = pack(BottomLeftState, random_items(seed, 6))
            sub = Packing(p.placements[:3])
            a = F(1, 4)
            for x in (F(0), F(1, 4), F(1, 2), F(3, 4)):
                assert rest_height(sub, x, a) <= rest_height(p, x, a)


class TestSupport:
    def test_strip_bottom(self):
        assert is_supported(Packing.empty(),
                            Placement(SquareItem(1, F(1)), F(0), F(0)))

    def test_positive_overlap(self):
        p = packing_of([("1/2", 0, 0)])
        pl = Placement(SquareItem(2, F(1, 4)), F(1, 4), F(1, 2))
        assert is_supported(p, pl)

    def test_corner_contact_is_not_support(self):
        p = packing_of([("1/2", 0, 0)])
        pl = Placement(SquareItem(2, F(1, 4)), F(1, 2), F(1, 2))
        assert not is_supported(p, pl)


class TestReachability:
    def test_empty_strip_full_slab(self):
        sweep = reachable_positions(Packing.empty(), F(1, 2))
        assert sweep.at_level(F(0)) == [(F(0), F(1, 2))]
        assert sweep.at_level(F(17, 3)) == [(F(0), F(1, 2))]

    def test_slide_along_touching_boundary(self):
        p = packing_of([("1/2", 0, 0)])
        sweep = reachable_positions(p, F(1, 2))
        assert sweep.at_level(F(0)) == [(F(1, 2), F(1, 2))]
        assert is_tetris_reachable(p, Placement(SquareItem(2, F(1, 2)), F(1, 2), F(0)))

    def test_slide_under_a_square_at_the_ground(self):
        # the half square's bottom is a above the strip floor: the quarter
        # slides under it along the floor, though not in the slab above
        p = packing_of([("1/4", 0, 0), ("1/2", 0, "1/4")])
        a, step = F(1, 4), F(1, 8)
        spans = reachable_positions(p, a).at_level(F(0))
        assert spans == [(F(1, 4), F(3, 4))]
        third = Placement(SquareItem(3, a), F(1, 4), F(0))
        assert verify_packing([pl.item for pl in p.placements] + [third.item],
                              list(p.placements) + [third]).ok
        reach, nx, _ = grid_bfs_reachable(p, a, step)
        assert {ix for ix in range(nx + 1) if spans_contain(spans, ix * step)} \
            == {ix for ix, iy in reach if iy == 0} == set(range(2, nx + 1))

    def test_narrow_gap_floor_unreachable(self):
        p = packing_of([("2/5", 0, 0), ("2/5", 0, "2/5"),
                        ("2/5", "3/5", 0), ("2/5", "3/5", "2/5")])
        pl = Placement(SquareItem(5, F(1, 4)), F(9, 20), F(0))
        assert not is_tetris_reachable(p, pl)

    def test_sealed_lid(self):
        p = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0), (1, 0, "1/2")])
        below = Placement(SquareItem(4, F(1, 4)), F(0), F(1, 2))
        above = Placement(SquareItem(4, F(1, 4)), F(0), F(3, 2))
        assert not is_tetris_reachable(p, below)
        assert is_tetris_reachable(p, above)

    def test_side_one_needs_clear_column(self):
        p = packing_of([("1/4", "1/2", 0)])
        assert not is_tetris_reachable(p, Placement(SquareItem(2, F(1)), F(0), F(0)))
        assert is_tetris_reachable(p, Placement(SquareItem(2, F(1)), F(0), F(1, 4)))

    def test_side_too_big_rejected(self):
        with pytest.raises(PackingError):
            reachable_positions(Packing.empty(), F(3, 2))

    def test_monotone_under_obstacle_removal(self):
        seq = random_items(3, 8, lo=F(1, 8), hi=F(1, 2))
        p = pack(BottomLeftState, seq)
        smaller = Packing(p.placements[:-1])
        a = F(3, 16)
        full = reachable_positions(p, a)
        sub = reachable_positions(smaller, a)
        for y in [pl.top for pl in p.placements] + [F(0)]:
            for lo, hi in full.at_level(y):
                spans = sub.at_level(y)
                assert any(slo <= lo and hi <= shi for slo, shi in spans)


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
        sweep = reachable_positions(p, a)
        for iy in range(ny + 1):
            spans = sweep.at_level(iy * step)
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
        assert verify_packing(seq, pls).ok

    def test_overlap_detected(self):
        seq = items("1/2", "1/2")
        pls = [Placement(seq[0], F(0), F(0)),
               Placement(seq[1], F(1, 4), F(0))]
        report = verify_packing(seq, pls)
        assert report.first_failure == (2, "overlap")
        assert report.describe() == "overlap at step 2"

    def test_floating_detected(self):
        seq = items("1/2")
        pls = [Placement(seq[0], F(0), F(1, 2))]
        assert verify_packing(seq, pls).first_failure == (1, "unsupported")

    def test_unreachable_detected(self):
        # two pillars, a sealing lid, then a square inside the cavity
        seq = items("1/4", "1/4", 1, "1/4")
        pls = [Placement(seq[0], F(0), F(0)),
               Placement(seq[1], F(3, 4), F(0)),
               Placement(seq[2], F(0), F(1, 4)),
               Placement(seq[3], F(3, 8), F(0))]
        report = verify_packing(seq, pls)
        assert report.first_failure == (4, "unreachable")

    def test_out_of_strip_is_overlap_class(self):
        seq = items("1/2")
        pls = [Placement(seq[0], F(3, 4), F(0))]
        assert verify_packing(seq, pls).first_failure == (1, "overlap")

    def test_mismatch_rejected(self):
        seq = items("1/2")
        with pytest.raises(PackingError):
            verify_packing(seq, [])

    def test_stops_at_first_failure(self):
        seq = random_items(3, 100)
        packed = pack(BottomLeftState, seq).placements
        assert len(verify_packing(seq, packed).verdicts) == 100
        pls = list(packed)
        first = pls[0]
        pls[1] = Placement(pls[1].item, first.x, first.y)   # onto square 1
        report = verify_packing(seq, pls)
        assert report.describe() == "overlap at step 2"
        assert len(report.verdicts) == 2

    def test_height(self):
        assert Packing.empty().height == 0
        assert packing_of([(1, 0, 0)]).height == 1
        assert packing_of([("1/2", 0, 0), ("1/2", 0, "1/2")]).height == 1
