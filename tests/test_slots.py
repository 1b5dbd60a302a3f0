from fractions import Fraction as F

import pytest

from conftest import items, random_items
from strippack.packing import PackingError, SquareItem, pack, rest_height, \
    verify_packing
from strippack.slots import SlotId, SlotState, round_to_dyadic


class TestRounding:
    @pytest.mark.parametrize("side,level,width", [
        ("1", 0, "1"),
        ("1/4", 2, "1/4"),
        ("26/100", 1, "1/2"),
        ("1/2", 1, "1/2"),
        ("51/100", 0, "1"),
        ("1/64", 6, "1/64"),
    ])
    def test_examples(self, side, level, width):
        assert round_to_dyadic(F(side)) == (level, F(width))

    def test_rejects_out_of_range(self):
        with pytest.raises(PackingError):
            round_to_dyadic(F(0))
        with pytest.raises(PackingError):
            round_to_dyadic(F(3, 2))


class TestChooseSlot:
    def test_empty_ties_leftmost(self):
        assert SlotState().choose(1) == SlotId(1, 0)

    def test_occupied_slot_skipped(self):
        s = SlotState()
        s.place(SquareItem(1, F(1, 2)))
        assert s.choose(1) == SlotId(1, 1)

    def test_equal_heights_tie_leftmost(self):
        s = SlotState()
        s.place(SquareItem(1, F(1, 2)))
        s.place(SquareItem(2, F(1, 2)))
        assert s.choose(2) == SlotId(2, 0)


class TestRuns:
    def test_single(self):
        assert pack(SlotState, items(1)).height == 1

    def test_halves_stack_in_left_slot(self):
        p = pack(SlotState, items("1/2", "1/2", "1/2"))
        assert [(pl.x, pl.y) for pl in p.placements] == \
            [(0, 0), (F(1, 2), 0), (0, F(1, 2))]
        assert p.height == 1

    def test_three_tenths_run(self):
        p = pack(SlotState, items("3/10", "3/10", "1/5"))
        assert [(pl.x, pl.y) for pl in p.placements] == \
            [(0, 0), (F(1, 2), 0), (0, F(3, 10))]

    def test_killer_two_slots(self):
        seq = items(*(["17/64"] * 8))
        p = pack(SlotState, seq)
        assert p.height == F(17, 16)
        assert verify_packing(seq, p.placements).ok

    def test_outputs_verify_and_support(self):
        for seed in range(8):
            seq = random_items(400 + seed, 15)
            p = pack(SlotState, seq)
            assert verify_packing(seq, p.placements).ok

    def test_slot_containment(self):
        for seed in range(6):
            seq = random_items(500 + seed, 12)
            p = pack(SlotState, seq)
            for pl in p.placements:
                level, width = round_to_dyadic(pl.item.side)
                assert (pl.x / width).denominator == 1
                assert pl.right <= pl.x - (pl.x % width) + width


class TestTreeGeometryConsistency:
    def test_cached_heights_match_rest_height(self):
        for seed in range(5):
            seq = random_items(600 + seed, 10)
            s = SlotState()
            for item in seq:
                s.place(item)
                p = s.packing
                for k in range(0, 5):
                    for j in range(2 ** k):
                        slot = SlotId(k, j)
                        assert s.drop_height(slot) == \
                            rest_height(p, slot.left, slot.width)
