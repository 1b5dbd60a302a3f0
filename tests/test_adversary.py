import hashlib
import random
from fractions import Fraction as F

import pytest

from conftest import grown, rect_on
from strippack import adversary
from strippack.adversary import (TYPE_I, TYPE_II, AdversaryTranscript,
                                 IterationRecord, adversary_run,
                                 classify_iteration,
                                 optimal_packing_for_transcript)
from strippack.bottomleft import BottomLeftState
from strippack.cli import STRATEGIES, main
from strippack.harness import placements_csv
from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               _replay, pack, verify_packing)
from strippack.slots import SlotState, slot_killer_instance

EPS = F(1, 100)

# sha256 of `adversary --iterations 100 --epsilon 1/100` (the same for both
# strategies), computed with the full-scan Fraction step checker: the
# serialize() text (the --report file less its final newline), the
# optimal-height line, and the placements CSVs of the strategy's packing
# and of the band packing
GOLDEN_M100_SHA256 = {
    "report": "aeaaf9870e671c705150ec1fb2611b689d92f4b969de38df2f94fe7430ea9a11",
    "optimal-height":
        "32e052f4c1ef07b4d4fdac147d9faf0a4212f122b4cd60d39e97eb115243d238",
    "strategy-csv":
        "897051433323708a33fa4d070fb46a4ca269853b10ca3804a69a1f82ec11f11b",
    "optimal-csv":
        "e158f202cf3f4f342fa3b0f386737c356b95873f08730e96809263b465fd87ee",
}


def q(x, y):
    """A quarter's lattice rect at scale 8, its corner at (x, y) / 8."""
    return x, x + 2, y, y + 2


class TestClassification:
    def test_stacked_at_height_is_type_one(self):
        assert classify_iteration(q(0, 0), q(0, 2), 0) == TYPE_I

    def test_side_by_side_is_type_two(self):
        assert classify_iteration(q(0, 0), q(2, 0), 0) == TYPE_II

    def test_stacked_above_height_is_type_two(self):
        assert classify_iteration(q(0, 1), q(0, 3), 0) == TYPE_II

    def test_order_independent(self):
        assert classify_iteration(q(0, 2), q(0, 0), 0) == TYPE_I

    def test_corner_contact_is_type_two(self):
        assert classify_iteration(q(0, 0), q(2, 2), 0) == TYPE_II

    def test_stacked_at_a_later_height_is_type_one(self):
        assert classify_iteration(q(3, 5), q(4, 7), 5) == TYPE_I


class StackerState:
    """Test strategy that always stacks at the left wall."""

    def __init__(self):
        self.packing = Packing()

    def place(self, item):
        return self.put(Placement(item, F(0), self.packing.height))

    def put(self, pl):
        at = rect_on(self.packing, pl)
        self.packing = self.packing.extended(pl.item, at)
        return at


class TestAdversaryRuns:
    def test_bottomleft_one_iteration(self):
        t = adversary_run(BottomLeftState, 1, EPS)
        assert t.iterations[0].kind == TYPE_II
        assert t.final_height == F(5, 4) + EPS

    def test_stacker_goes_type_one(self):
        t = adversary_run(StackerState, 1, EPS)
        assert t.iterations[0].kind == TYPE_I
        assert t.final_height >= F(5, 4)

    def test_slot_one_iteration(self):
        t = adversary_run(SlotState, 1, EPS)
        assert t.iterations[0].kind == TYPE_II
        assert t.final_height == F(5, 4) + EPS

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_lemma8_holds(self, name):
        t = adversary_run(STRATEGIES[name], 6, EPS)
        for m, rec in enumerate(t.iterations, start=1):
            assert rec.height_after >= F(5, 4) * m - F(1, 4)

    def test_invalid_strategy_aborts(self):
        class Teleporter(StackerState):
            """Drops every square at the origin: square 2 overlaps."""

            def place(self, item):
                return self.put(Placement(item, F(0), F(0)))

        class Floater(StackerState):
            """Hangs square 1 in the air above the strip bottom."""

            def place(self, item):
                return self.put(Placement(item, F(0),
                                          self.packing.height + F(1, 8)))

        class Tunneller(StackerState):
            """Stacks two quarters and the 3/4+eps square at the wall, which
            overhangs the floor out to x = 3/4+eps and leaves a column too
            narrow for a quarter; then puts square 4 on the floor under the
            overhang."""

            def place(self, item):
                if item.index != 4:
                    return super().place(item)
                return self.put(Placement(item, F(1, 4), F(0)))

        for strategy, square, violation in ((Teleporter, 2, "overlap"),
                                             (Floater, 1, "unsupported"),
                                             (Tunneller, 4, "unreachable")):
            with pytest.raises(PackingError) as exc:
                adversary_run(strategy, 2, EPS)
            assert str(exc.value) == f"strategy square {square}: {violation}"


def fraction_bands(t: AdversaryTranscript) -> Packing:
    """The reference band packing, built as before the lattice: a
    ``Placement`` per square from ``_band`` with Fraction bases, replayed
    by ``_replay``."""
    eps, base, pls = t.epsilon, F(0), []
    for rec in t.iterations:
        for side, x, y in adversary._band(rec.kind, eps):
            pls.append(Placement(SquareItem(len(pls) + 1, side), x, base + y))
        base += 1 + eps
    failure, packing = _replay([pl.item for pl in pls], pls)
    if failure:
        raise PackingError(f"optimal construction invalid: {failure}")
    return packing


def serialized(t: AdversaryTranscript) -> str:
    """The reference transcript text, each iteration's sides rebuilt from
    ``_band``."""
    lines = [f"epsilon {t.epsilon}"]
    for i, rec in enumerate(t.iterations, 1):
        sides = [str(a) for a, _, _ in adversary._band(rec.kind, t.epsilon)]
        sides += ["0"] * (5 - len(sides))
        lines.append(f"iteration {i} type {rec.kind} sides "
                     f"{' '.join(sides)} height {rec.height_after}")
    return "\n".join(lines)


def bands_or_refusal(construct, t):
    """The band packing's placements and height, or the refusal's text."""
    try:
        p = construct(t)
    except PackingError as err:
        return str(err)
    return p.placements, p.height


BAND_EPSILONS = [F(1, 100), F(1, 3), F(1, 7), F(249, 1000), F(1, 2 ** 40)]


class TestLatticeBands:
    """The band packing built on the lattice equals the Fraction reference
    on the transcripts of both strategies, of the stacker and of a mix of
    kinds.  An epsilon outside the adversary's range (0, 1/4) is given to a
    transcript played at 1/100; its bands leave the strip, and both
    constructions refuse them, with the same text where every iteration is
    of one kind.  On a mix, the reference builds every square before it
    replays, so its first square of side over 1 fails first; the lattice
    build meets the squares in order."""

    @staticmethod
    def transcript(name, m, eps) -> AdversaryTranscript:
        if name == "mixed":
            rng = random.Random(f"mixed:{m}")
            return AdversaryTranscript(eps, [
                IterationRecord(rng.choice((TYPE_I, TYPE_II)), F(0))
                for _ in range(m)], Packing())
        t = adversary_run(STRATEGIES.get(name, StackerState), m,
                          eps if eps < F(1, 4) else EPS)
        return AdversaryTranscript(eps, t.iterations, t.packing)

    @pytest.mark.parametrize("eps", BAND_EPSILONS)
    @pytest.mark.parametrize("m", [1, 7, 40])
    @pytest.mark.parametrize("name",
                             sorted(STRATEGIES) + ["stacker", "mixed"])
    def test_equal_to_the_fraction_bands(self, name, m, eps):
        t = self.transcript(name, m, eps)
        got = bands_or_refusal(optimal_packing_for_transcript, t)
        want = bands_or_refusal(fraction_bands, t)
        if eps < F(1, 4):
            assert got == want and got[1] == m * (1 + eps)
        elif name == "mixed":
            assert isinstance(got, str) and isinstance(want, str)
        else:
            assert isinstance(got, str) and got == want
        assert t.serialize() == serialized(t)


class TestOptimalConstruction:
    @pytest.mark.parametrize("name", sorted(STRATEGIES) + ["stacker"])
    def test_bands_verify_and_stay_low(self, name):
        factory = STRATEGIES.get(name, StackerState)
        t = adversary_run(factory, 5, EPS)
        opt = optimal_packing_for_transcript(t)     # verifies internally
        assert opt.height <= 5 * (1 + 2 * EPS)
        # the packing the verifier replayed is the one built from scratch
        fresh = grown(opt.placements)
        assert opt.lattice() == fresh.lattice() and opt.height == fresh.height

    def test_invalid_band_is_refused(self, monkeypatch):
        """The band packing is verified before it is returned: a band whose
        squares overlap fails with the first broken rule."""
        t = adversary_run(BottomLeftState, 1, EPS)
        monkeypatch.setattr(adversary, "_band", lambda *_: [
            (F(1, 2), F(0), F(0)), (F(1, 2), F(1, 4), F(0))])
        with pytest.raises(PackingError) as err:
            optimal_packing_for_transcript(t)
        assert str(err.value) == "optimal construction invalid: overlap at step 2"

    def test_ratio_exceeds_competitive_floor(self):
        t = adversary_run(BottomLeftState, 4, EPS)
        opt = optimal_packing_for_transcript(t)
        assert t.final_height / opt.height >= F(122, 100)
        assert t.final_height == F(5) + F(4, 100)

    def test_transcript_serialization(self):
        t = adversary_run(BottomLeftState, 2, EPS)
        text = t.serialize()
        assert text.startswith("epsilon 1/100")
        assert "iteration 1 type" in text

    def test_emitted_items_replay(self):
        t = adversary_run(BottomLeftState, 3, EPS)
        band = optimal_packing_for_transcript(t)
        emitted = [pl.item for pl in band.placements]
        assert emitted[0].side == F(1, 4)
        assert verify_packing(emitted, t.packing.placements) is None


class TestKillerInstance:
    def test_two_squares_stack_in_single_slot(self):
        seq = slot_killer_instance(1, F(1, 64), 2)
        assert [it.side for it in seq] == [F(33, 64)] * 2
        p = pack(SlotState, seq)
        assert p.height == F(33, 32)
        area = sum(it.side ** 2 for it in seq)
        assert area == 2 * F(33, 64) ** 2

    def test_ratio_approaches_two(self):
        seq = slot_killer_instance(6, F(1, 2 ** 12), 2 ** 8)
        p = pack(SlotState, seq)
        area = sum(it.side ** 2 for it in seq)
        assert p.height / area >= F(19, 10)

    def test_exact_power_rejected(self):
        with pytest.raises(PackingError):
            slot_killer_instance(3, F(0), 4)

    def test_too_large_delta_rejected(self):
        with pytest.raises(PackingError):
            slot_killer_instance(3, F(1, 4), 4)   # rounds past 2^-(k-1)


class TestGoldenTranscripts:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_m100(self, name, tmp_path, capsys):
        sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
        report = tmp_path / "report.txt"
        assert main(["adversary", "--strategy", name, "--iterations", "100",
                     "--epsilon", "1/100", "--report", str(report)]) == 0
        line, = [s for s in capsys.readouterr().out.splitlines()
                 if s.startswith("optimal-height")]
        t = adversary_run(STRATEGIES[name], 100, EPS)
        assert report.read_text() == t.serialize() + "\n"
        assert sha(t.serialize()) == GOLDEN_M100_SHA256["report"]
        assert sha(line) == GOLDEN_M100_SHA256["optimal-height"]
        assert sha(placements_csv(t.packing)) == \
            GOLDEN_M100_SHA256["strategy-csv"]
        assert sha(placements_csv(optimal_packing_for_transcript(t))) == \
            GOLDEN_M100_SHA256["optimal-csv"]
