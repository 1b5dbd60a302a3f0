"""``check_step``, which reads the skyline first, against the rules alone
(``check_rules``), and growth gates on the work of its fallback.

``check_step`` settles a step from the skyline of the tops, which the
packing's lattice keeps, when the square lies at or above every top over
its x-range, and calls ``check_rules`` otherwise; the two must agree on
every step, valid or not, including which rule is named first."""

import random
from fractions import Fraction as F

import pytest

import strippack.packing
from conftest import (assert_grows_linearly, fresh_python, grown,
                      packing_of, placements, random_items, rect_on,
                      window_reads)
from strippack.adversary import adversary_run
from strippack.bottomleft import BottomLeftState, bl_place_next
from strippack.cli import STRATEGIES
from strippack.geometry import StepProfile
from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               check_rules, check_step, pack, verify_packing)
from strippack.slots import SlotState, slot_killer_instance
from test_bottomleft import gravity_packing
from test_lattice import EPS, corpus_items

KILLER_K = 6


def mutants(sofar: Packing, at):
    """The step at ``at`` changed to break a rule, as ``(kind, rect)``:
    lifted by one lattice unit, pushed one unit past each wall, and moved
    onto the newest square."""
    l, r, b, t = at
    s, scale = r - l, sofar._lat.scale
    out = [("lifted", (l, r, b + 1, t + 1)),
           ("outside", (-1, s - 1, b, t)),
           ("outside", (scale - s + 1, scale + 1, b, t))]
    if len(sofar):
        ql, _, qb, _ = sofar.lattice()[1][-1]
        x = min(ql, scale - s)          # in the strip, over the square
        out.append(("neighbour", (x, x + s, qb, qb + s)))
    return out


def assert_step_agrees(sofar: Packing, at, seen: set, where) -> None:
    """``check_step`` and ``check_rules`` accept the square at ``at`` and
    give the same verdict on each of its mutants; adds each mutant's
    ``(kind, verdict)`` to ``seen``."""
    for kind, bad in mutants(sofar, at):
        verdict = check_rules(sofar, bad)
        assert check_step(sofar, bad) == verdict, (where, kind, bad)
        seen.add((kind, verdict))
    assert (check_step(sofar, at), check_rules(sofar, at)) == (None, None), \
        where


def assert_checker_agrees(pls, seen: set):
    """Replay ``pls`` on a lattice fitted as they arrive, so that ``fit``
    rescales the skyline mid-run, with ``assert_step_agrees`` at every
    step; every step is served by the one skyline of the chain.  Then
    recheck a few steps on their older snapshots, which the skyline has
    passed, by the rules alone, and on a branch from each, which grows
    the prefix again on a chain and skyline of its own.  Returns the
    packing and the scales seen."""
    sofar, scales, snapshots = Packing(), set(), []
    for step, pl in enumerate(pls, start=1):
        at = rect_on(sofar, pl)
        scales.add(sofar._lat.scale)
        assert_step_agrees(sofar, at, seen, step)
        assert sofar.skyline() is sofar._lat.sky
        snapshots.append(sofar)
        sofar = sofar.extended(pl.item, at)
    assert sofar.skyline().end == sofar._lat.scale
    for k in range(0, len(pls) - 2, max(1, len(pls) // 5)):
        older = snapshots[k]
        with pytest.raises(PackingError, match="^skyline raised past"):
            older.skyline()
        assert check_rules(older, rect_on(older, pls[k])) is None, k
        branch = grown(pls[:k + 1])
        assert_step_agrees(branch, rect_on(branch, pls[k + 1]), seen,
                           ("branch", k))
        assert branch.skyline() is branch._lat.sky is not sofar._lat.sky
    return sofar, scales


def assert_each_rule_broken(seen: set):
    """Lifting gives ``unsupported``, and a square outside the strip or on
    its neighbour gives ``overlap``."""
    assert ("lifted", "unsupported") in seen
    assert {v for k, v in seen if k == "outside"} == {"overlap"}
    assert {v for k, v in seen if k == "neighbour"} == {"overlap"}


class TestAgainstCheckStep:
    def test_corpus(self):
        seen = set()
        for seed in range(50):
            for strategy in (BottomLeftState, SlotState):
                assert_checker_agrees(
                    placements(pack(strategy, corpus_items(seed))), seen)
        assert_each_rule_broken(seen)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_killer(self, name):
        seen = set()
        seq = slot_killer_instance(KILLER_K, F(1, 2 ** 12), 128)
        assert_checker_agrees(placements(pack(STRATEGIES[name], seq)), seen)
        assert_each_rule_broken(seen)

    def test_gravity_drops_and_their_bottomleft_spots(self):
        """The packings of ``TestUnbuiltPackings``, each with the spot that
        BottomLeft finds above it for six sides."""
        rng = random.Random("gravity-drop")
        sides = [F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
        seen = set()
        for _ in range(300):
            p = gravity_packing(rng, rng.randint(2, 8), rng.choice([4, 6, 8]))
            sofar, _ = assert_checker_agrees(placements(p), seen)
            for a in sides:
                item = SquareItem(len(sofar) + 1, a)
                at = bl_place_next(sofar, item)
                assert check_step(sofar, at) == check_rules(sofar, at) \
                    is None, (placements(sofar), a)
        assert_each_rule_broken(seen)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary(self, name):
        # the 3/4 + eps square brings a denominator the quarters lack
        seen = set()
        pls = placements(adversary_run(STRATEGIES[name], 100, EPS).packing)
        _, scales = assert_checker_agrees(pls, seen)
        assert len(scales) > 1
        assert_each_rule_broken(seen)

    def test_sealed_cavity(self):
        # two pillars under a lid: the skyline over the cavity is the lid's
        # top, so check_step falls back and names the cavity unreachable
        pls = placements(packing_of([("1/4", 0, 0), ("1/4", "3/4", 0),
                                     (1, 0, "1/4")]))
        sofar, _ = assert_checker_agrees(pls, set())
        inside = rect_on(sofar, Placement(SquareItem(4, F(1, 4)),
                                          F(3, 8), F(0)))
        assert check_step(sofar, inside) == check_rules(sofar, inside) == \
            "unreachable"

    @pytest.mark.parametrize("x, free, over", [("-1/4", "1/2", 0),
                                               ("3/4", "1/4", "3/4")])
    def test_square_past_a_wall(self, x, free, over):
        """A packing built directly from a square sticking out past a wall:
        its skyline keeps the part in the strip, so a quarter beside it and
        one on that part get the verdicts of the rules."""
        sofar = packing_of([("1/2", x, 0)])
        for qx, want in ((free, None), (over, "overlap")):
            at = rect_on(sofar, Placement(SquareItem(2, F(1, 4)), F(qx),
                                          F(0)))
            assert check_step(sofar, at) == check_rules(sofar, at) == want

    def test_skyline_settles_without_check_step(self, monkeypatch):
        """Squares at or above every top over their x-range, on the ground,
        on a top or floating, never reach the rules."""
        def never(*args):
            raise AssertionError("a rule was run")

        for rule in ("check_rules", "is_supported", "is_tetris_reachable"):
            monkeypatch.setattr(strippack.packing, rule, never)
        seq = [SquareItem(i, F(1, 4)) for i in range(1, 6)]
        row = [Placement(seq[i], F(i, 4), F(0)) for i in range(4)]
        on_top = Placement(seq[4], F(1, 2), F(1, 4))
        assert verify_packing(seq, row + [on_top]) is None
        floating = Placement(seq[4], F(1, 2), F(1, 3))
        assert verify_packing(seq, row + [floating]) == \
            "unsupported at step 5"


class TestOneSkyline:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_adversary_raises_each_square_once(self, name, monkeypatch):
        """The slot strategy chooses on the lattice's skyline and the
        adversary checks on it, so the 500 squares of m=100 build one
        skyline and raise it once each (a skyline per reader raised each
        square twice)."""
        built, raised = [], []
        init, raise_ = StepProfile.__init__, StepProfile.raised

        def counted_init(self, end):
            built.append(end)
            init(self, end)

        def counted_raised(self, lo, hi, value):
            raised.append(lo)
            raise_(self, lo, hi, value)

        monkeypatch.setattr(StepProfile, "__init__", counted_init)
        monkeypatch.setattr(StepProfile, "raised", counted_raised)
        adversary_run(STRATEGIES[name], 100, F(1, 100))
        assert len(built) == 1
        assert len(raised) <= 500

    def test_slot_adversary_settles_every_step(self, monkeypatch):
        """A slot square drops onto the skyline, and the adversary checks
        it on the snapshot the strategy chose on, so no step needs the
        rules."""
        def never(*args):
            raise AssertionError("a rule was run")

        monkeypatch.setattr(strippack.packing, "check_rules", never)
        assert len(adversary_run(SlotState, 100, F(1, 100)).packing) == 500


# ---------------------------------------------------------------------------
# growth gates: the rects the fallback reads, at n and at 4n
# ---------------------------------------------------------------------------

def fallback_reads(family, strategy):
    """The count of ``window_reads`` during ``verify_packing`` of the
    packing ``strategy`` makes of ``family(n)``, as a function of n."""
    def count(n):
        seq = family(n)
        pls = placements(pack(strategy, seq))
        return window_reads(lambda: verify_packing(seq, pls))
    return count


def tiny_row(n):
    return [SquareItem(i, F(1, 2 ** 20)) for i in range(1, n + 1)]


class TestVerifyGrowth:
    """Before the skyline, each step of a row read every square before it:
    n (n - 1) / 2 rects, 16 times as many at 4n.  Every step of a row
    settles from the skyline, so the gates on rows hold at 0."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_tiny_row(self, name):
        assert_grows_linearly(fallback_reads(tiny_row, STRATEGIES[name]), 250)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_killer_at_fixed_k(self, name):
        def killer(n):
            return slot_killer_instance(KILLER_K, F(1, 2 ** 12), n)
        assert_grows_linearly(fallback_reads(killer, STRATEGIES[name]), 256)

    def test_random_bottomleft(self):
        # BottomLeft tucks squares under overhangs, so its fallback reads
        small, _ = assert_grows_linearly(
            fallback_reads(lambda n: random_items(n, n), BottomLeftState), 250)
        assert small > 0

    def test_killer_verifies_in_bounded_time(self):
        """The killer k=12, n=8192 took 30 s to verify before the skyline,
        and about 0.04 s with it (Python 3.11.7, 2 vCPUs)."""
        child = ("import time\n"
                 "from fractions import Fraction\n"
                 "from strippack.packing import Placement, pack, "
                 "verify_packing\n"
                 "from strippack.slots import (SlotState,\n"
                 "                             slot_killer_instance)\n"
                 "seq = slot_killer_instance(12, Fraction(1, 2 ** 20), 8192)\n"
                 "s, rects = pack(SlotState, seq).lattice()\n"
                 "pls = [Placement(it, Fraction(l, s), Fraction(b, s))\n"
                 "       for it, (l, _, b, _) in zip(seq, rects)]\n"
                 "start = time.perf_counter()\n"
                 "verdict = verify_packing(seq, pls)\n"
                 "print(time.perf_counter() - start, verdict)\n")
        wall, verdict = fresh_python(child).split()
        assert verdict == "None"
        assert float(wall) < 2
