import hashlib
import random
from fractions import Fraction as F

import pytest

from conftest import (deep_items, floor_rect, fresh_python, items,
                      nondyadic_items, random_items, rest_height)
from strippack.cli import main
from strippack.geometry import StepProfile
from strippack.harness import instance_text, parse_instance, placements_csv
from strippack.packing import (SquareItem, pack, reachable_positions,
                               verify_packing)
from strippack.slots import SlotState, round_to_dyadic, slot_killer_instance


def halving_round(a):
    """round_to_dyadic as it was first written: halve 1 while the half
    still covers a."""
    k, w = 0, F(1)
    while w / 2 >= a:
        w /= 2
        k += 1
    return k, w


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

    def test_matches_halving_on_random_rationals(self):
        rng = random.Random(700)
        for _ in range(2000):
            q = rng.randint(1, 2 ** rng.randint(1, 80))
            a = F(rng.randint(1, q), q)
            assert round_to_dyadic(a) == halving_round(a)

    def test_matches_halving_near_powers_of_two(self):
        tiny = F(1, 2 ** 500)
        for k in range(401):
            for a in (F(1, 2 ** k) - tiny, F(1, 2 ** k), F(1, 2 ** k) + tiny):
                if a <= 1:
                    assert round_to_dyadic(a) == halving_round(a), k


def choose(s, width):
    """``s.choose`` for a slot width given as a rational."""
    return s.choose(*s.packing.units(width), s.packing.skyline())


class TestChooseSlot:
    def test_empty_ties_leftmost(self):
        assert choose(SlotState(), F(1, 2)) == 0

    def test_occupied_slot_skipped(self):
        s = SlotState()
        s.place(SquareItem(1, F(1, 2)))
        assert choose(s, F(1, 2)) == 1

    def test_equal_heights_tie_leftmost(self):
        s = SlotState()
        s.place(SquareItem(1, F(1, 2)))
        s.place(SquareItem(2, F(1, 2)))
        assert choose(s, F(1, 4)) == 0


class TestSkylineScale:
    @pytest.mark.parametrize("seq", [random_items(700, 15),
                                     nondyadic_items(0)[:15]])
    def test_query_between_arrivals_rescales(self, seq):
        # each query fits a new odd denominator into the strategy's
        # lattice; the skyline must follow it, not only its own fits
        plain = pack(SlotState, seq).placements
        s = SlotState()
        for i, item in enumerate(seq):
            s.place(item)
            p = s.packing
            reachable_positions(p, floor_rect(p, F(1, 2 * i + 3)))
        assert s.packing.placements == plain


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
        assert verify_packing(seq, p.placements) is None

    def test_outputs_verify_and_support(self):
        for seed in range(8):
            seq = random_items(400 + seed, 15)
            p = pack(SlotState, seq)
            assert verify_packing(seq, p.placements) is None

    def test_slot_containment(self):
        for seed in range(6):
            seq = random_items(500 + seed, 12)
            p = pack(SlotState, seq)
            for pl in p.placements:
                level, width = round_to_dyadic(pl.item.side)
                assert (pl.x / width).denominator == 1
                assert pl.x + pl.item.side <= pl.x - (pl.x % width) + width


def lowest_slot(p, k):
    """The index of the leftmost level-k slot of least rest height, by
    trying every one."""
    w = F(1, 2 ** k)
    return min(range(2 ** k), key=lambda j: (rest_height(p, j * w, w), j))


class TestTreeGeometryConsistency:
    def test_choose_matches_brute_force_lowest_slot(self):
        seqs = [random_items(600 + seed, 10) for seed in range(5)]
        seqs += [nondyadic_items(seed)[:12] for seed in range(2)]
        for seq in seqs:
            s = SlotState()
            for item in seq:
                s.place(item)
                for k in range(7):
                    assert choose(s, F(1, 2 ** k)) == lowest_slot(s.packing, k)

    def test_cached_choice_matches_brute_force_lowest_slot(self):
        """Squares of one or two levels in a row, so that most choices
        come from the skyline's kept candidates; each placement must land
        in the lowest slot the packing had before it."""
        seqs = [random_items(610 + seed, 24, F(1, 8) + F(1, 2 ** 20), F(1, 4))
                for seed in range(3)]
        seqs += [random_items(620 + seed, 24, F(1, 16) + F(1, 2 ** 20), F(1, 4))
                 for seed in range(3)]
        seqs.append(slot_killer_instance(4, F(1, 256), 40))
        for seq in seqs:
            s = SlotState()
            for item in seq:
                k, width = round_to_dyadic(item.side)
                j = lowest_slot(s.packing, k)
                l, _, _, _ = s.place(item)
                assert l == j * s.packing.units(width)[0]


class _Reads(list):
    """A list that counts the items read from it while ``count`` is on."""

    count, reads = False, 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if _Reads.count:
            _Reads.reads += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        if _Reads.count:
            _Reads.reads += len(self)
        return super().__iter__()


class TestLowestSlotWork:
    def test_killer_reads_few_segments_per_placement(self, monkeypatch):
        """Every segment the lowest-slot search visits has its height read
        once, so the heights read count the segments.  A scan of the whole
        skyline reads about 64 per placement on the acceptance killer."""
        lowest = StepProfile.lowest_cell

        def counted(self, w):
            if type(self.values) is not _Reads:     # a rescale replaced it
                self.values = _Reads(self.values)
            _Reads.count = True
            try:
                return lowest(self, w)
            finally:
                _Reads.count = False

        monkeypatch.setattr(StepProfile, "lowest_cell", counted)
        monkeypatch.setattr(_Reads, "reads", 0)
        seq = slot_killer_instance(6, F(1, 4096), 4096)
        assert _sha256(placements_csv(pack(SlotState, seq))) == \
            KILLER_CSV_SHA256
        assert _Reads.reads / len(seq) < 6

    def test_deep_killer_in_bounded_time(self):
        """2^11 slots in a row stay open.  With a scan of the whole skyline
        per placement the run took 8-11 s, with kept candidates under 1 s
        (Python 3.11.7, 2 vCPUs)."""
        child = ("import time\n"
                 "from fractions import Fraction\n"
                 "from strippack.packing import pack\n"
                 "from strippack.slots import SlotState, slot_killer_instance\n"
                 "seq = slot_killer_instance(12, Fraction(1, 2 ** 20), 8192)\n"
                 "start = time.perf_counter()\n"
                 "height = pack(SlotState, seq).height\n"
                 "print(time.perf_counter() - start, height)\n")
        wall, height = fresh_python(child).split()
        assert F(height) == F(257, 2 ** 18)
        assert float(wall) < 3


# sha256 of the slot placement CSV and of the `analyze --strategy slot`
# report, computed with the dense per-level slot height tables
DEEP_SHA256 = [
    ("092eef1bb2d82136de398459b9c08f117ea39b76a298a9c9473dcfd99989520b",
     "b510dce42d9d90e43a69f391aa915d912966ebdf1916f451d7aff6ecccd9689f"),
    ("b7025f38856ff9ccde86a8603860248309f109206ad493581de745e684796c89",
     "a2f055696cea1121188ae855cf8f81eeecec1ee519e3fc2ab8fce0784830b3fe"),
    ("f730e6f8685ce660fc9d8ed1ba1c9d807fd10f5f3d7059f12814ffa8cef7544a",
     "7f4cffb25fd106c98cc8878f7a2615bfe20485440b826abaf32aa573d5db60cf"),
    ("b2c03e153e0cbc76fdf4c4d3ff6d036854e10303dc75e08d4f4f5a15e8a0e443",
     "cf33d9d324c743764bef03379ddd80bc6c92afcebcb5768d9ac3ba5a0847ec12"),
    ("21860c4f7bcfc48d5d31a2e5f4cbe5aa6983871639b1cfcfbd0696ce323b9461",
     "5a7822f58cfcf8642727d56e0304b8f0a8d1ba9b6ae1a20891a7ece11e008c4a"),
    ("f8a1aa299f980fbbcfc81e1f64703d737183cc15a42f959f337c7ae4f3b8faf7",
     "537c0631a4f8055aec36d67546fe6b41e4e62ce7d92ad9f6e1aa21d2c9de8e4d"),
    ("025cf51ddf11a8acb92140cd8cf8a56d86b538d555b57361c23a61b8cc8bb1f2",
     "a3d7242a80e73ea17886d6e542403296eccb42eae02d6732140075c3a0720a36"),
]
NONDYADIC_SHA256 = [
    ("a83f755f42b469eeaa9787e39dd35547b15c4720c7173263372625ba76b812d6",
     "8ff42b9f62e5d2b6d43be14925199eaad0dbe109b2637449541eeb220819cc9e"),
    ("591bbf6037266f2b2558867d360bf272343d82a120a43cc755017b8b7a52d917",
     "c82793891659161ca08ade2987599c4a19ee60b080f7d6b0835232cd2fe83968"),
    ("0717dec84dc4c5aabf6a0d0139ba1b99458f5058a73c17b28d2878e53f7d80b2",
     "046557193475eb09bcbdafb60b6f0f9ea881a369d28a43691623de53855bc47d"),
]
# the same pins for the three large-panel instances (100 sides
# randint(2^14, 2^20) / 2^20 from Random("large:<i>")) and for
# `gen-random --n 240 --seed 7`, computed with the Fraction charge map that
# re-sorted every x-column
LARGE_SHA256 = [
    ("2062dd6ce6fd35eeffa89582c275281a150678e5e3f747d08d13321dad712f92",
     "2d7d22844effdb809906bd45b5aae40001ef1db7ebcb668deed0e318cd3fa49f"),
    ("57868da1de6c7b7b5631a0c2331b1bb4b89c6a46fac16168043cdb4d391089ea",
     "9d1df3c34886ed6ad66b2963aee5ee5144b2dc135dd272a03daa4663acbb38bc"),
    ("ae1759fe54377e164ffe9d0a6434d031f1bb087cd6f903b698af4b4ca31c932a",
     "46608fbf999ed6df8ada9ca6f9ca5afdd995ce3d5bff3aa54407a318cdcb14e1"),
]
RANDOM_240_SHA256 = (
    "4a839ca5ec84df477c6d330eae1830e5736b2a6339d48de395df4e57dfe12806",
    "7832907007aafab6147a142973b6ec69702e38c86ef2dc2d4eb2040062f269bd")
# the acceptance killer: k = 6, delta = 1/4096, n = 4096
KILLER_CSV_SHA256 = \
    "222e07fa0d51f8bb4e6b3d9f48b2e3ff787eeb95ab22a7c50601b4f05b87f286"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenSlotPackings:
    def _check(self, seq, pins, tmp_path, capsys):
        assert _sha256(placements_csv(pack(SlotState, seq))) == pins[0]
        inst = tmp_path / "inst.txt"
        inst.write_text(instance_text(seq))
        capsys.readouterr()
        assert main(["analyze", "--strategy", "slot", "--input", str(inst)]) == 0
        assert _sha256(capsys.readouterr().out) == pins[1]

    @pytest.mark.parametrize("idx", range(len(DEEP_SHA256)))
    def test_slot_deep_panel(self, idx, tmp_path, capsys):
        self._check(deep_items(idx), DEEP_SHA256[idx], tmp_path, capsys)

    @pytest.mark.parametrize("seed", range(len(NONDYADIC_SHA256)))
    def test_nondyadic(self, seed, tmp_path, capsys):
        self._check(nondyadic_items(seed), NONDYADIC_SHA256[seed], tmp_path,
                    capsys)

    @pytest.mark.parametrize("idx", range(len(LARGE_SHA256)))
    def test_large_panel(self, idx, tmp_path, capsys):
        self._check(random_items(f"large:{idx}", 100), LARGE_SHA256[idx],
                    tmp_path, capsys)

    def test_random_240(self, tmp_path, capsys):
        path = tmp_path / "n240.txt"
        assert main(["gen-random", "--n", "240", "--seed", "7",
                     "--out", str(path)]) == 0
        seq = parse_instance(path.read_text())
        self._check(seq, RANDOM_240_SHA256, tmp_path, capsys)

    def test_acceptance_killer(self):
        seq = slot_killer_instance(6, F(1, 4096), 4096)
        assert _sha256(placements_csv(pack(SlotState, seq))) == \
            KILLER_CSV_SHA256
