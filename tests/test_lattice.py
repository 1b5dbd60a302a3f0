"""The step checker on the packing's integer lattice against a Fraction
reference: a full scan of every earlier square for overlap and support, and
the reachability sweep as it was before the lattice (rescaled on every call,
every obstacle swept, no floor)."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import (at_level, floor_rect, grown, items, nondyadic_items,
                      packing_of, placement_at, placements, random_items,
                      rect_on)
from strippack.adversary import adversary_run, optimal_packing_for_transcript
from strippack.bottomleft import BottomLeftState, bl_place_next
from strippack.cli import STRATEGIES
from span_reference import (intersect_spans, spans_contain, spans_meet,
                            subtract_spans_open)
from strippack.geometry import Rect
from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               _replay, check_step, close_packing,
                               is_supported, is_tetris_reachable, pack,
                               reachable_positions, verify_packing)
from strippack.slots import SlotState, slot_killer_instance
from test_bottomleft import gravity_packing
from test_families import FAMILIES, family_items

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
    pls = placements(p)
    scale = lcm(a.denominator, *(d for pl in pls for d in (
        pl.x.denominator, pl.y.denominator, pl.item.side.denominator)))
    sa = int(a * scale)
    full = [(0, scale - sa)]
    obs = []
    for pl in pls:
        sl, sb, s = int(pl.x * scale), int(pl.y * scale), int(pl.item.side * scale)
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


def eager_sweep(p: Packing, a, floor=F(0)):
    """The per-event record of reachable_positions as it was before the
    events were fed from the top down: one event dict over the whole floor
    window, sorted, swept until the first sealed level.  Returns the
    descending event levels, the spans reachable exactly at each and those
    of the open slab below each, on the packing's lattice."""
    scale, rects = p.lattice(a, floor)
    low, sa = int(floor * scale), int(a * scale)
    full = [(0, scale - sa)]
    obs = [(l - sa, r, b - sa, t) for l, r, b, t in rects if b > low - scale]
    events = {}
    for idx, (_, _, alo, ahi) in enumerate(obs):
        if ahi > low:
            events.setdefault(ahi, ([], []))[0].append(idx)
            if alo >= low:
                events.setdefault(alo, ([], []))[1].append(idx)
    active, ev_out, at_out, slab_out = [], [], [], []
    r_prev = full
    for lv in sorted(events, reverse=True):
        entering, leaving = events[lv]
        at_active = [o for o in active if o[2] not in leaving]
        f_at = subtract_spans_open(full, [o[:2] for o in at_active])
        r_at = [s for s in f_at if spans_meet([s], r_prev)]
        active = sorted(at_active + [(obs[i][0], obs[i][1], i)
                                     for i in entering])
        f_below = subtract_spans_open(full, [o[:2] for o in active])
        entry = intersect_spans(r_at, f_below)
        r_prev = [s for s in f_below if spans_meet([s], entry)]
        ev_out.append(lv)
        at_out.append(r_at)
        slab_out.append(r_prev)
        if not r_prev:
            break
    return ev_out, at_out, slab_out


def recorded_spans(record, w, y):
    """The spans at lattice level y in an ``eager_sweep`` record: those at
    y if it is an event, else those of the slab below the last event above
    it, or all of [0, w] above every event."""
    spans = [(0, w)]
    for lv, at, slab in zip(*record):
        if lv < y:
            break
        spans = at if lv == y else slab
    return spans


def eager_lowest(p: Packing, a, floor=F(0)):
    """The lowest level at or above the floor that ``eager_sweep`` reaches,
    and its spans: the last event if the sweep sealed there, else the
    floor."""
    scale, _ = p.lattice(a, floor)
    low, w = int(floor * scale), scale - int(a * scale)
    record = ev, at, slabs = eager_sweep(p, a, floor)
    if slabs and not slabs[-1]:
        return ev[-1], at[-1]
    return low, recorded_spans(record, w, low)


def rect_of(pl: Placement) -> Rect:
    return Rect(pl.x, pl.x + pl.item.side, pl.y, pl.y + pl.item.side)


def reference_supported(sofar: Packing, pl: Placement) -> bool:
    """On the strip bottom, or on the top of some earlier square with
    positive overlap."""
    rect = rect_of(pl)
    return pl.y == 0 or any(
        q.top == pl.y and q.left < rect.right and rect.left < q.right
        for q in map(rect_of, placements(sofar)))


def reference_step(sofar: Packing, pl: Placement):
    """The first of the three rules ``pl`` breaks, or None."""
    rect = rect_of(pl)
    if not (0 <= rect.left and rect.right <= 1 and pl.y >= 0) or any(
            rect.interior_overlaps(rect_of(q)) for q in placements(sofar)):
        return "overlap"
    if not reference_supported(sofar, pl):
        return "unsupported"
    if not spans_contain(reference_spans(sofar, pl.item.side, pl.y), pl.x):
        return "unreachable"
    return None


# ---------------------------------------------------------------------------
# packings under test and their corruptions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def adversary_packings():
    return {name: adversary_run(STRATEGIES[name], 100, EPS).packing
            for name in sorted(STRATEGIES)}


def assert_replay_agrees(pls):
    """Replay ``pls`` and compare every step's verdict with the reference."""
    sofar = Packing()
    for step, pl in enumerate(pls, start=1):
        at = rect_on(sofar, pl)
        assert check_step(sofar, at) == reference_step(sofar, pl), step
        sofar = sofar.extended(pl.item, at)
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
        a = pl.item.side
        kind = rng.randrange(3)
        if kind == 0:
            x = min(max(other.x + rng.choice(offsets) * other.item.side - a / 2,
                        F(0)), 1 - a)
            moved = Placement(pl.item, x, other.y)
        elif kind == 1:
            moved = Placement(pl.item, pl.x, pl.y + rng.choice(offsets))
        else:
            x = min(other.x + rng.choice(offsets) * other.item.side, 1 - a)
            moved = Placement(pl.item, x, other.y + other.item.side)
        out.append((pls[:k], moved))
    return out


def assert_corruptions_agree(pls, seed, count):
    seen = set()
    for prefix, moved in corruptions(pls, seed, count):
        sofar = grown(prefix)
        verdict = check_step(sofar, rect_on(sofar, moved))
        assert verdict == reference_step(sofar, moved), (len(prefix), moved)
        seen.add(verdict)
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
            pls = placements(pack(strategy, seq))
            assert_replay_agrees(pls)
            seen |= assert_corruptions_agree(pls, seed, 40)
        assert {"overlap", "unsupported"} <= seen

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary(self, adversary_packings, name):
        pls = placements(adversary_packings[name])
        final = assert_replay_agrees(pls)
        assert final.height == adversary_packings[name].height
        seen = assert_corruptions_agree(pls, 7, 150)
        assert set(VIOLATIONS) <= seen

    def test_sealed_cavity(self):
        # two pillars under a lid: square 4 sits inside, out of reach
        p = packing_of([("1/4", 0, 0), ("1/4", "3/4", 0), (1, 0, "1/4")])
        inside = Placement(SquareItem(4, F(1, 4)), F(3, 8), F(0))
        verdict = check_step(p, rect_on(p, inside))
        assert verdict == "unreachable"
        assert verdict == reference_step(p, inside)


class TestReachFloor:
    @staticmethod
    def assert_floor_exact(p, sides, reference=True):
        """The sweep floored at each level finds there what the reference
        finds, or, with ``reference`` off, what ``eager_sweep`` over every
        square records there."""
        levels = sorted({F(0)} | {pl.y + pl.item.side for pl in placements(p)})
        for a in sides:
            scale, _ = p.lattice(a)
            record = eager_sweep(p, a)      # floor 0: every square
            w = scale - int(a * scale)
            for y in levels:
                spans = at_level(p, a, y)
                if reference:
                    assert spans == reference_spans(p, a, y), (a, y)
                else:
                    recorded = recorded_spans(record, w, int(y * scale))
                    assert spans == [(F(lo, scale), F(hi, scale))
                                     for lo, hi in recorded], (a, y)

    @pytest.mark.parametrize("seed", range(50))
    def test_corpus_every_top(self, seed):
        p = pack(BottomLeftState, corpus_items(seed))
        sides = [F(1, 64), F(1, 3), F(1), placements(p)[seed % 30].item.side]
        self.assert_floor_exact(p, sides)

    def test_slide_under_a_square_at_the_floor(self):
        # the half square's bottom is a above the floor: the quarter slides
        # under it at the floor level, though not in the slab just above
        p = packing_of([("1/4", 0, 0), ("1/2", "1/4", "1/2")])
        a, y = F(1, 4), F(1, 4)
        assert at_level(p, a, y) == [(0, F(3, 4))]
        assert at_level(p, a, F(1, 3)) == [(0, 0), (F(3, 4), F(3, 4))]
        self.assert_floor_exact(p, [a, F(1, 8), F(1, 2)])

    def test_adversary_every_top(self, adversary_packings):
        p = adversary_packings["bottomleft"]
        self.assert_floor_exact(p, [F(1, 4), F(1, 2) + EPS], reference=False)


class _CountedRects(list):
    """A list that counts the entries read from it by index."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestLazySweep:
    @staticmethod
    def assert_every_arrival_agrees(pls):
        p = Packing()
        for pl in pls:
            for floor in (F(0), pl.y):
                at = floor_rect(p, pl.item.side, floor)
                assert reachable_positions(p, at) == \
                    eager_lowest(p, pl.item.side, floor), (pl, floor)
            p = p.extended(pl.item, rect_on(p, pl))

    @pytest.mark.parametrize("seed", range(20))
    def test_corpus(self, seed):
        for strategy in (BottomLeftState, SlotState):
            self.assert_every_arrival_agrees(
                placements(pack(strategy, corpus_items(seed))))

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary(self, adversary_packings, name):
        self.assert_every_arrival_agrees(placements(adversary_packings[name]))

    def test_side_one_top_where_another_square_leaves(self):
        # for a = 1/4 the quarter at (0, 5/4) leaves at level 1, the top of
        # the side-1 square, whose bottom is exactly 1 below that level
        self.assert_every_arrival_agrees(placements(packing_of([
            (1, 0, 0), ("1/4", 0, 1), ("1/2", "1/4", 1), ("1/4", 0, "5/4"),
            ("1/4", "1/4", "3/2")])))

    @pytest.mark.parametrize("m", [100, 400])
    def test_bottomleft_reads_do_not_grow_with_m(self, m):
        # the packing grows to 5m squares; each sweep stops at the seal
        # just under the top and reads the same few squares at any m: the
        # top square's rect, then the rect of each index entry it consumes
        p, most = Packing(), 0
        for pl in placements(adversary_run(BottomLeftState, m, EPS).packing):
            p.units(pl.item.side)       # a rescale would replace the rects
            p._lat.rects = rects = _CountedRects(p._lat.rects)
            reachable_positions(p, floor_rect(p, pl.item.side))
            most = max(most, rects.reads)
            p = p.extended(pl.item, rect_on(p, pl))
        assert len(p) == 5 * m and most <= 8

    @pytest.mark.parametrize("m", [100, 400])
    def test_bottomleft_reads_only_what_its_sweep_reads(self, m):
        # the candidate levels and their supports come from the sweep, so
        # a placement reads no rect of the lattice beyond the sweep's reads
        p = Packing()
        for pl in placements(adversary_run(BottomLeftState, m, EPS).packing):
            p.units(pl.item.side)       # a rescale would replace the rects
            p._lat.rects = rects = _CountedRects(p._lat.rects)
            reachable_positions(p, floor_rect(p, pl.item.side))
            swept, rects.reads = rects.reads, 0
            assert placement_at(p, pl.item, bl_place_next(p, pl.item)) == pl
            assert rects.reads == swept, pl
            p = p.extended(pl.item, rect_on(p, pl))


class TestSweepLevelIsSupported:
    """Every spot reachable at the sweep's level is supported, the fact
    that lets BottomLeft take the first span's left end there."""

    @staticmethod
    def assert_level_supported(p: Packing, item: SquareItem):
        """The span ends at the returned level, and every lattice point of a
        span where support can change: the ends of the shadows (l_j - a,
        r_j) of the tops there, and the points next to them.  Support is a
        union of those open shadows, so a span with an unsupported lattice
        point has one among these."""
        a = item.side
        y, spans = reachable_positions(p, floor_rect(p, a))
        if y == 0:
            return
        scale, rects = p.lattice()
        sa = int(a * scale)
        ends = {e + d for l, r, _, t in rects if t == y
                for e in (l - sa, r) for d in (-1, 0, 1)}
        for lo, hi in spans:
            for x in {lo, hi} | {e for e in ends if lo <= e <= hi}:
                pl = Placement(item, F(x, scale), F(y, scale))
                assert reference_supported(p, pl), (item, x, y, scale)

    def assert_every_arrival(self, pls):
        p = Packing()
        for pl in pls:
            self.assert_level_supported(p, pl.item)
            p = p.extended(pl.item, rect_on(p, pl))

    @pytest.mark.parametrize("seed", range(50))
    def test_corpus(self, seed):
        self.assert_every_arrival(
            placements(pack(BottomLeftState, corpus_items(seed))))

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary(self, adversary_packings, name):
        self.assert_every_arrival(placements(adversary_packings[name]))

    def test_gravity_drops(self):
        rng = random.Random("gravity-drop")
        sides = [F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
        for _ in range(300):
            p = gravity_packing(rng, rng.randint(2, 8), rng.choice([4, 6, 8]))
            for a in sides:
                self.assert_level_supported(p, SquareItem(len(p) + 1, a))

    def test_sealed_above_the_floor(self):
        # test_sealed_cavity's packing: the lid seals the sweep at its top,
        # and the cavity under it is out of reach
        p = packing_of([("1/4", 0, 0), ("1/4", "3/4", 0), (1, 0, "1/4")])
        a = F(1, 4)
        y, spans = reachable_positions(p, floor_rect(p, a))
        scale, _ = p.lattice()
        assert (F(y, scale), spans) == (F(5, 4), [(0, scale - int(a * scale))])
        inside = Placement(SquareItem(4, a), F(3, 8), F(0))
        assert not is_tetris_reachable(p, rect_on(p, inside))


# ---------------------------------------------------------------------------
# lattice edge cases
# ---------------------------------------------------------------------------

class TestLatticeEdges:
    @pytest.mark.parametrize("bottom", [F(0), F(1, 3), F(2, 7)])
    def test_support_at_window_edge(self, bottom):
        # the side-1 square's bottom is exactly pl.y - 1, the window's edge
        p = packing_of([(1, 0, bottom)])
        pl = Placement(SquareItem(2, F(1, 2)), F(1, 4), bottom + 1)
        assert is_supported(p, rect_on(p, pl))
        assert check_step(p, rect_on(p, pl)) is None
        assert check_step(p, rect_on(p, pl)) == reference_step(p, pl)
        higher = Placement(SquareItem(2, F(1, 2)), F(1, 4), bottom + F(3, 2))
        assert check_step(p, rect_on(p, higher)) == "unsupported"

    def test_rescale_mid_packing(self):
        seq = items("1/2", "1/4", "1/8", "1/2", "1/16", "1/3", "1/5", "1/4",
                    "1/3", "3/5")
        p = pack(BottomLeftState, seq)
        assert verify_packing(seq, placements(p)) is None
        assert_replay_agrees(placements(p))
        scale, rects = p.lattice()
        assert scale % 15 == 0
        assert list(rects) == [
            (pl.x * scale, (pl.x + pl.item.side) * scale, pl.y * scale,
             (pl.y + pl.item.side) * scale) for pl in placements(p)]
        assert p.height == max(pl.y + pl.item.side for pl in placements(p))

    def test_two_branches_from_one_snapshot(self):
        """A chain grows only at its newest snapshot: extending an older one
        raises and leaves the chain as it was, so a branch grows its prefix
        again."""
        base = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0)])
        left = Placement(SquareItem(3, F(1, 2)), F(0), F(1, 2))
        right = Placement(SquareItem(3, F(1, 3)), F(2, 3), F(1, 2))
        one = base.extended(left.item, rect_on(base, left))
        with pytest.raises(PackingError,
                           match=r"^square 3: not the newest packing$"):
            base.extended(right.item, rect_on(base, right))
        assert base._lat.items == [*base.items, left.item]
        assert placements(one) == (*placements(base), left)
        two = grown([*placements(base), right])
        assert (len(base), len(one), len(two)) == (2, 3, 3)
        assert (one.height, two.height) == (F(1), F(5, 6))
        # each branch takes a square where only the other one's would clash
        on_right = Placement(SquareItem(4, F(1, 3)), F(2, 3), F(1, 2))
        on_left = Placement(SquareItem(4, F(1, 2)), F(0), F(1, 2))
        assert check_step(one, rect_on(one, on_right)) is None
        assert check_step(two, rect_on(two, on_left)) is None
        assert check_step(one, rect_on(one, on_left)) == "overlap"
        assert check_step(two, rect_on(two, on_right)) == "overlap"

    def test_branch_drops_a_rect_of_the_shared_lattice(self):
        # the first branch's third square brings a 3 into the shared
        # lattice; a second extension of the snapshot raises and leaves that
        # lattice as it was, and the second branch, grown again, is on
        # halves without the first branch's rect
        base = packing_of([("1/2", 0, 0), ("1/2", "1/2", 0)])
        first = Placement(SquareItem(3, F(1, 3)), F(0), F(1, 2))
        second = Placement(SquareItem(3, F(1, 2)), F(1, 2), F(1, 2))
        shared = base._lat
        one = base.extended(first.item, rect_on(base, first))
        at = rect_on(base, second)
        assert shared.scale == 6 and at == (3, 6, 3, 6)
        with pytest.raises(PackingError,
                           match=r"^square 3: not the newest packing$"):
            base.extended(second.item, at)
        assert shared.items == [*base.items, first.item]
        assert one.lattice() == (6, [(0, 3, 0, 3), (3, 6, 0, 3),
                                     (0, 2, 3, 5)])
        two = grown([*placements(base), second])
        assert two.lattice() == (2, [(0, 1, 0, 1), (1, 2, 0, 1),
                                     (1, 2, 1, 2)])
        for branch, pl in ((one, first), (two, second)):
            failure, built = _replay([q.item for q in placements(branch)],
                                     placements(branch))
            assert failure is None
            assert placements(branch) == (*placements(base), pl)
            assert (branch.height, branch._top) == (built.height, built._top)

    def test_height_of_every_prefix(self):
        # the top is tracked by index on the lattice along a chain of
        # extensions
        pls = placements(pack(BottomLeftState, random_items(77, 40)))
        p = Packing()
        for i, pl in enumerate(pls):
            p = p.extended(pl.item, rect_on(p, pl))
            assert p.height == max(q.y + q.item.side for q in pls[:i + 1])

    def test_empty_height_and_lattice(self):
        p = Packing()
        assert p.height == 0
        assert p.lattice() == (1, [])


def assert_built_equals_grown(pls) -> Packing:
    """The verifier's replay of ``pls``, on a lattice fitted to all of
    them first, is what extending the empty packing by each of ``pls``
    gives, fitted as they come: the same placements, top, lattice and
    windows.  Returns the replay's packing."""
    failure, built = _replay([pl.item for pl in pls], pls)
    assert failure is None
    chain = grown(pls)
    assert placements(built) == placements(chain) == tuple(pls)
    assert (built.height, built._top) == (chain.height, chain._top)
    scale, rects = built.lattice()
    chain_scale, chain_rects = chain.lattice()
    assert (scale, list(rects)) == (chain_scale, list(chain_rects))
    above = max((t for _, _, _, t in rects), default=0)  # above every bottom
    assert built.window(0, above) == chain.window(0, above)
    for _, _, b, t in rects:
        for lo, hi in ((b - scale, t), (b, above)):
            assert built.window(lo, hi) == chain.window(lo, hi)
    return built


class TestBuiltPacking:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_corpus(self, strategy):
        for seed in range(20):
            pls = placements(pack(STRATEGIES[strategy], corpus_items(seed)))
            assert_built_equals_grown(pls)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family, strategy):
        for seed in range(5):
            p = pack(STRATEGIES[strategy], family_items(family, seed))
            assert_built_equals_grown(placements(p))

    def test_shared_top_keeps_the_first(self):
        # tops 1/4, 1/2, 1/2: the second square is the topmost
        pls = [Placement(SquareItem(i, F(a)), F(x), F(y)) for i, (a, x, y)
               in enumerate([("1/4", 0, 0), ("1/2", "1/2", 0),
                             ("1/4", 0, "1/4")], 1)]
        built = assert_built_equals_grown(pls)
        assert built._top == 1 and built.height == F(1, 2)


# ---------------------------------------------------------------------------
# conversions: every rational becomes a lattice integer in ``_Lattice.units``
# ---------------------------------------------------------------------------

def prime_items(n: int):
    """Sides ``(p // 3)/p`` for n primes from the 11th on: every square
    brings a new denominator."""
    primes, k = [], 2
    while len(primes) < 10 + n:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return [SquareItem(i, F(q // 3, q)) for i, q in enumerate(primes[10:], 1)]


class TestOneConversion:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_strategy_converts_each_square_once(self, conversions, name):
        # the strategy converts the side; the sweep and the extension read
        # the rect it hands them
        seq = random_items(5, 100)
        pack(STRATEGIES[name], seq)
        assert conversions["units"] == len(seq)
        assert conversions["rescales"] >= 1

    def test_verify_converts_each_placement_once(self, conversions):
        seq = random_items(5, 100)
        pls = placements(pack(BottomLeftState, seq))
        conversions.update(units=0, rescales=0)
        assert verify_packing(seq, pls) is None
        assert conversions == {"units": 100, "rescales": 1}

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary_checks_convert_nothing(self, conversions, name):
        # the strategy converts each square's side as it places it (the
        # slot strategy only a side object other than the last one's, or
        # after a rescale, and both runs send the same side objects); the
        # check of each step reads the rect the strategy returns, and only
        # the classification converts a value: the previous height, once
        # per iteration
        transcript = adversary_run(STRATEGIES[name], 30, EPS)
        during_run = conversions["units"]
        conversions.update(units=0)
        alone = pack(STRATEGIES[name],
                     [pl.item for pl in placements(transcript.packing)])
        assert placements(alone) == placements(transcript.packing)
        assert during_run == conversions["units"] + 30 > 30

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_band_packing_converts_per_kind(self, conversions, name):
        # one fit to both kinds and the band height, then each kind's five
        # or three rows once, whatever the number of iterations
        counts = []
        for m in (5, 40):
            transcript = adversary_run(STRATEGIES[name], m, EPS)
            conversions.update(units=0)
            optimal_packing_for_transcript(transcript)
            counts.append(conversions["units"])
        assert counts == [1 + 8, 1 + 8]

    def test_killer_converts_its_side_once_per_rescale(self, conversions):
        # every square of the killer shares one side object, so the slot
        # strategy converts it once, at the one rescale its first square
        # brings
        pack(SlotState, slot_killer_instance(6, F(1, 4096), 256))
        assert conversions == {"units": 1, "rescales": 1}

    def test_repeated_side_converts_again_after_a_rescale(self, conversions):
        # the side object of the square before is converted once, but a
        # rescale between two squares (here a caller's conversion of 1/3)
        # makes the next convert it again; equal but distinct sides convert
        # every time, and both packings are the same
        a, state = F(1, 4), SlotState()
        for i in (1, 2):
            state.place(SquareItem(i, a))
        assert conversions == {"units": 1, "rescales": 1}
        state.packing.units(F(1, 3))
        state.place(SquareItem(3, a))
        assert conversions == {"units": 3, "rescales": 2}
        conversions.update(units=0)
        distinct = pack(SlotState, items("1/4", "1/4", "1/4"))
        assert conversions["units"] == 3
        assert placements(state.packing) == placements(distinct)

    def test_verify_fits_the_prime_family_once(self, conversions):
        seq = prime_items(700)
        pls = placements(pack(SlotState, seq))
        assert conversions["rescales"] >= 700   # online: one per new prime
        conversions.update(units=0, rescales=0)
        assert verify_packing(seq, pls) is None
        assert conversions == {"units": 700, "rescales": 1}


# ---------------------------------------------------------------------------
# placements: none built by packing, read from the lattice at any time
# ---------------------------------------------------------------------------

class TestPlacementsOnRead:
    @staticmethod
    def assert_packing_builds_none(built, strategy, seq):
        """Packing and closing build no ``Placement``, and the closed
        packing's placements extend the open one's."""
        p = pack(strategy, seq)
        closed = close_packing(p)
        assert built["placements"] == 0
        assert placements(closed)[:-1] == placements(p)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_killer(self, built, n):
        self.assert_packing_builds_none(
            built, SlotState, slot_killer_instance(6, F(1, 4096), n))

    @pytest.mark.parametrize("n", [120, 480])
    def test_ladder(self, built, n):
        self.assert_packing_builds_none(
            built, BottomLeftState, random_items(f"ladder:1:{n}", n))

    @staticmethod
    def assert_read_at_every_arrival_or_once(strategy, seq) -> int:
        """Placements read after every arrival, and read once at the end,
        are the Fractions of each square's rect at its arrival, and the
        height is the highest top.  A snapshot of the second chain, read
        first after the newest, keeps its own prefix.  Returns the number
        of scales the lattice took."""
        state, eager, scales = strategy(), [], set()
        for item in seq:
            at = state.place(item)
            p = state.packing
            eager.append(placement_at(p, item, at))
            scales.add(p.units(F(1))[0])
            assert placements(p) == tuple(eager)
            assert p.height == max(pl.y + pl.item.side for pl in eager)
        once, snapshots = strategy(), []
        for item in seq:
            once.place(item)
            snapshots.append(once.packing)
        assert placements(once.packing) == tuple(eager)
        assert once.packing.height == state.packing.height
        assert all(placements(s) == tuple(eager[:len(s)]) for s in snapshots)
        return len(scales)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_read_between_rescales(self, name):
        # every square brings a new prime, so every read but the first
        # comes after a rescale of what the read before it built
        seq = prime_items(60)
        assert self.assert_read_at_every_arrival_or_once(
            STRATEGIES[name], seq) == len(seq)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_nondyadic_and_corpus(self, name):
        for seq in [nondyadic_items(0)] + [corpus_items(s) for s in range(20)]:
            self.assert_read_at_every_arrival_or_once(STRATEGIES[name], seq)
