"""The step checker on the packing's integer lattice against a Fraction
reference: a full scan of every earlier square for overlap and support, and
the reachability sweep as it was before the lattice (rescaled on every call,
every obstacle swept, no floor)."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import items, packing_of, random_items
from strippack.adversary import adversary_run
from strippack.bottomleft import BottomLeftState
from strippack.cli import STRATEGIES
from strippack.geometry import (Rect, intersect_spans, spans_contain,
                                spans_meet, subtract_spans_open)
from strippack.packing import (Packing, Placement, SquareItem, StepVerdict,
                               check_step, is_supported, pack,
                               reachable_positions, verify_packing)
from strippack.slots import SlotState

EPS = F(1, 100)
VIOLATIONS = ("overlap", "unsupported", "unreachable")


def corpus_items(seed: int):
    """Acceptance-corpus instance ``seed``: 30 sides, generator 1_000_000+seed."""
    return random_items(1_000_000 + seed, 30)


# ---------------------------------------------------------------------------
# Fraction reference
# ---------------------------------------------------------------------------

def reference_spans(p: Packing, a, y):
    """Reachable left-edge spans at level y: the whole sweep over every
    square, on a lattice built for this call."""
    pls = p.placements
    scale = lcm(a.denominator, *(d for pl in pls for d in (
        pl.x.denominator, pl.y.denominator, pl.item.side.denominator)))
    sa = int(a * scale)
    full = [(0, scale - sa)]
    obs = []
    for pl in pls:
        sl, sb, s = int(pl.x * scale), int(pl.y * scale), int(pl.side * scale)
        obs.append((sl - sa, sl + s, sb - sa, sb + s))
    events = {}
    for idx, (_, _, alo, ahi) in enumerate(obs):
        events.setdefault(ahi, ([], []))[0].append(idx)
        if alo >= 0:
            events.setdefault(alo, ([], []))[1].append(idx)
    levels = sorted(events, reverse=True)
    yi = y * scale
    if yi >= p.height * scale or not levels or yi > levels[0]:
        spans = full
    else:
        active, r_prev, spans = [], full, None
        for lv in levels:
            entering, leaving = events[lv]
            at_active = [i for i in active if i not in leaving]
            f_at = subtract_spans_open(full, [obs[i][:2] for i in at_active])
            r_at = [s for s in f_at if spans_meet([s], r_prev)]
            active = [i for i in at_active + entering if i not in leaving]
            f_below = subtract_spans_open(full, [obs[i][:2] for i in active])
            entry = intersect_spans(r_at, f_below)
            r_prev = [s for s in f_below if spans_meet([s], entry)]
            if lv == yi:
                spans = r_at
                break
            if lv < yi:
                break
            spans = r_prev              # the slab below this event
        assert spans is not None
    return [(F(lo, scale), F(hi, scale)) for lo, hi in spans]


def rect_of(pl: Placement) -> Rect:
    return Rect.of(pl.left, pl.bottom, pl.right, pl.top)


def reference_step(sofar: Packing, pl: Placement) -> StepVerdict:
    rect = rect_of(pl)
    overlap_free = pl.in_strip() and not any(
        rect.interior_overlaps(rect_of(q)) for q in sofar.placements)
    supported = pl.y == 0 or any(
        q.top == pl.y and q.left < pl.right and pl.left < q.right
        for q in sofar.placements)
    reachable = overlap_free and spans_contain(
        reference_spans(sofar, pl.side, pl.y), pl.x)
    return StepVerdict(overlap_free, supported, reachable)


# ---------------------------------------------------------------------------
# packings under test and their corruptions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def adversary_packings():
    return {name: adversary_run(STRATEGIES[name], 100, EPS).packing
            for name in sorted(STRATEGIES)}


def assert_replay_agrees(pls):
    """Replay ``pls`` and compare every step's verdict with the reference."""
    sofar = Packing.empty()
    for step, pl in enumerate(pls, start=1):
        assert check_step(sofar, pl) == reference_step(sofar, pl), step
        sofar = sofar.extended(pl)
    return sofar


def corruptions(pls, seed: int, count: int):
    """Seeded single-square corruptions: ``(prefix, placement)`` pairs.

    Each moves square k onto an earlier square (overlap), lifts it off its
    support (unsupported) or drops it onto the top of an earlier square
    somewhere below (often sealed off: unreachable).  The offsets have
    denominators 3, 5 and 7, so most corruptions force a rescale.
    """
    rng = random.Random(seed)
    offsets = [F(1, 32), F(1, 3), F(2, 5), F(1, 7), F(1, 15)]
    out = []
    for _ in range(count):
        k = rng.randrange(1, len(pls))
        pl, other = pls[k], pls[rng.randrange(k)]
        a = pl.side
        kind = rng.randrange(3)
        if kind == 0:
            x = min(max(other.x + rng.choice(offsets) * other.side - a / 2,
                        F(0)), 1 - a)
            moved = Placement(pl.item, x, other.y)
        elif kind == 1:
            moved = Placement(pl.item, pl.x, pl.y + rng.choice(offsets))
        else:
            x = min(other.x + rng.choice(offsets) * other.side, 1 - a)
            moved = Placement(pl.item, x, other.top)
        out.append((pls[:k], moved))
    return out


def assert_corruptions_agree(pls, seed, count):
    seen = set()
    for prefix, moved in corruptions(pls, seed, count):
        sofar = Packing(prefix)
        verdict = check_step(sofar, moved)
        assert verdict == reference_step(sofar, moved), (len(prefix), moved)
        seen.add(verdict.violation)
    return seen


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

class TestStepDifferential:
    @pytest.mark.parametrize("seed", range(50))
    def test_corpus(self, seed):
        seq = corpus_items(seed)
        seen = set()
        for strategy in (BottomLeftState, SlotState):
            pls = pack(strategy, seq).placements
            assert_replay_agrees(pls)
            seen |= assert_corruptions_agree(pls, seed, 40)
        assert {"overlap", "unsupported"} <= seen

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary(self, adversary_packings, name):
        pls = adversary_packings[name].placements
        final = assert_replay_agrees(pls)
        assert final.height == adversary_packings[name].height
        seen = assert_corruptions_agree(pls, 7, 150)
        assert set(VIOLATIONS) <= seen

    def test_sealed_cavity(self):
        # two pillars under a lid: square 4 sits inside, out of reach
        pls = packing_of([("1/4", 0, 0), ("1/4", "3/4", 0),
                          (1, 0, "1/4")]).placements
        inside = Placement(SquareItem(4, F(1, 4)), F(3, 8), F(0))
        verdict = check_step(Packing(pls), inside)
        assert verdict.violation == "unreachable"
        assert verdict == reference_step(Packing(pls), inside)


class TestReachFloor:
    @staticmethod
    def assert_floor_exact(p, sides, reference=True):
        levels = sorted({F(0)} | {pl.top for pl in p.placements})
        for a in sides:
            ground = reachable_positions(p, a)      # floor 0: every square
            for y in levels:
                spans = ground.at_level(y)
                assert reachable_positions(p, a, floor=y).at_level(y) == spans
                assert not reference or spans == reference_spans(p, a, y)

    @pytest.mark.parametrize("seed", range(50))
    def test_corpus_every_top(self, seed):
        p = pack(BottomLeftState, corpus_items(seed))
        sides = [F(1, 64), F(1, 3), F(1), p.placements[seed % 30].side]
        self.assert_floor_exact(p, sides)

    def test_slide_under_a_square_at_the_floor(self):
        # the half square's bottom is a above the floor: the quarter slides
        # under it at the floor level, though not in the slab just above
        p = packing_of([("1/4", 0, 0), ("1/2", "1/4", "1/2")])
        a, y = F(1, 4), F(1, 4)
        assert reachable_positions(p, a, floor=y).at_level(y) == [(0, F(3, 4))]
        assert reachable_positions(p, a, floor=y).at_level(F(1, 3)) == \
            [(0, 0), (F(3, 4), F(3, 4))]
        self.assert_floor_exact(p, [a, F(1, 8), F(1, 2)])

    def test_adversary_every_top(self, adversary_packings):
        p = adversary_packings["bottomleft"]
        self.assert_floor_exact(p, [F(1, 4), F(1, 2) + EPS], reference=False)


# ---------------------------------------------------------------------------
# lattice edge cases
# ---------------------------------------------------------------------------

class TestLatticeEdges:
    @pytest.mark.parametrize("bottom", [F(0), F(1, 3), F(2, 7)])
    def test_support_at_window_edge(self, bottom):
        # the side-1 square's bottom is exactly pl.y - 1, the window's edge
        p = packing_of([(1, 0, bottom)])
        pl = Placement(SquareItem(2, F(1, 2)), F(1, 4), bottom + 1)
        assert is_supported(p, pl)
        assert check_step(p, pl).ok
        assert check_step(p, pl) == reference_step(p, pl)
        higher = Placement(SquareItem(2, F(1, 2)), F(1, 4), bottom + F(3, 2))
        assert check_step(p, higher).violation == "unsupported"

    def test_rescale_mid_packing(self):
        seq = items("1/2", "1/4", "1/8", "1/2", "1/16", "1/3", "1/5", "1/4",
                    "1/3", "3/5")
        p = pack(BottomLeftState, seq)
        assert verify_packing(seq, p.placements).ok
        assert_replay_agrees(p.placements)
        scale, rects = p.lattice()
        assert scale % 15 == 0
        assert list(rects) == [
            (pl.left * scale, pl.right * scale, pl.bottom * scale,
             pl.top * scale) for pl in p.placements]
        assert p.height == max(pl.top for pl in p.placements)

    def test_two_branches_from_one_snapshot(self):
        base = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0)])
        left = Placement(SquareItem(3, F(1, 2)), F(0), F(1, 2))
        right = Placement(SquareItem(3, F(1, 3)), F(2, 3), F(1, 2))
        one = base.extended(left)
        two = base.extended(right)
        assert one.placements[-1] == left and two.placements[-1] == right
        assert (len(base), len(one), len(two)) == (2, 3, 3)
        assert (one.height, two.height) == (F(1), F(5, 6))
        for branch in (one, two):
            assert verify_packing([pl.item for pl in branch.placements],
                                  branch.placements).ok
        # each branch takes a square where only the other one's would clash
        on_right = Placement(SquareItem(4, F(1, 3)), F(2, 3), F(1, 2))
        on_left = Placement(SquareItem(4, F(1, 2)), F(0), F(1, 2))
        assert check_step(one, on_right).ok
        assert check_step(two, on_left).ok
        assert check_step(one, on_left).violation == "overlap"
        assert check_step(two, on_right).violation == "overlap"
        # growing either branch further leaves the other as it was
        three = one.extended(on_right)
        assert len(three) == 4 and len(two) == 3
        assert check_step(two, on_left).ok
        scale, rects = two.lattice()
        assert len(rects) == 3
        assert rects[-1] == (2 * scale // 3, scale, scale // 2, 5 * scale // 6)

    def test_empty_height_and_lattice(self):
        p = Packing.empty()
        assert p.height == 0
        assert p.lattice() == (1, [])
