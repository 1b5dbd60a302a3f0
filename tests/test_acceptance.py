"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Run with ``pytest -s tests/test_acceptance.py`` to see
the CHECK lines on passing runs too.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import at_level, grid_bfs_reachable
from strippack.adversary import adversary_run, optimal_packing_for_transcript
from strippack.bottomleft import BottomLeftState
from strippack.cli import STRATEGIES
from strippack.holes import (AnalysisError, extract_holes,
                             run_bottomleft_analysis)
from strippack.packing import (Placement, SquareItem, close_packing, pack,
                               verify_packing)
from strippack.shadows import charge_map
from strippack.slots import SlotState, slot_killer_instance

CORPUS_SIZE = 1000
CORPUS_N = 30
GRID = 2 ** 20
MIN_NUM = GRID // 64      # sides in [1/64, 1]
EPS = F(1, 100)
EIGHT_THIRTEENTHS = F(8, 13)


def corpus_instance(seed: int) -> list[SquareItem]:
    rng = random.Random(1_000_000 + seed)
    return [SquareItem(i, F(rng.randint(MIN_NUM, GRID), GRID))
            for i in range(1, CORPUS_N + 1)]


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """Every corpus instance run through both strategies and both analyses.

    Keeps one summary record per instance plus the first hundred BottomLeft
    packings (reused by the verifier-sensitivity criterion).
    """
    records = []
    packings = []
    lemma_failures = []
    for seed in range(CORPUS_SIZE):
        seq = corpus_instance(seed)
        p = pack(BottomLeftState, seq)
        if len(packings) < 100:
            packings.append((seq, p))
        area = sum(it.side ** 2 for it in seq)
        rec = {"seed": seed, "area": area, "height": p.height}
        try:
            ana = run_bottomleft_analysis(p)
        except AnalysisError as exc:
            lemma_failures.append(
                (seed, exc.name, [str(it.side) for it in seq]))
            records.append(rec)
            continue
        hole_sum = sum((h.area for h in extract_holes(ana.closed)), F(0))
        rec["identity"] = p.height == area + hole_sum
        rec["hole_sum"] = hole_sum
        rec["analysis_ok"] = ana.ok
        rec["max_charge"] = max(
            (F(ana.ledger.halves.get(pl.item.index, 0), 2)
             for pl in ana.closed.placements), default=F(0))
        rec["aggregate_ok"] = hole_sum <= F(5, 2) * (area + 1)
        rec["theorem1"] = p.height <= F(7, 2) * area + F(5, 2)

        sp = pack(SlotState, seq)
        closed = close_packing(sp)
        cm = charge_map(closed)
        rec["slot_height"] = sp.height
        rec["slot_per_square"] = all(
            cm.areas.get(pl.item.index, 0)
            <= EIGHT_THIRTEENTHS * pl.item.side ** 2
            for pl in closed.placements)
        rec["theorem2"] = sp.height <= 2 * area + EIGHT_THIRTEENTHS * (area + 1)
        records.append(rec)
    return {"records": records, "packings": packings,
            "lemma_failures": lemma_failures}


def test_criterion_1_height_identity(corpus):
    bad = [r["seed"] for r in corpus["records"] if not r.get("identity")]
    check("acceptance-1-height-identity", not bad,
          f"{CORPUS_SIZE - len(bad)}/{CORPUS_SIZE} exact; failing seeds {bad[:5]}"
          if bad else f"{CORPUS_SIZE}/{CORPUS_SIZE} exact")


def test_criterion_2_hole_charge_bounds(corpus):
    recs = corpus["records"]
    bad = [r["seed"] for r in recs
           if not (r.get("analysis_ok") and r.get("aggregate_ok")
                   and r.get("max_charge", F(3)) <= F(5, 2))]
    worst = max((r.get("max_charge", F(0)) for r in recs), default=F(0))
    check("acceptance-2-hole-charge-bounds", not bad,
          f"max per-square charge {worst} <= 5/2" if not bad
          else f"failing seeds {bad[:5]}")


def test_criterion_3_theorem1_bound(corpus):
    bad = [r["seed"] for r in corpus["records"] if not r.get("theorem1")]
    check("acceptance-3-theorem1", not bad,
          "height <= 3.5*area + 2.5 on all instances" if not bad
          else f"failing seeds {bad[:5]}")


def test_criterion_4_theorem2_bound(corpus):
    recs = corpus["records"]
    bad = [r["seed"] for r in recs
           if not (r.get("theorem2") and r.get("slot_per_square"))]
    check("acceptance-4-theorem2", not bad,
          "height and per-square 8/13 bounds exact on all instances"
          if not bad else f"failing seeds {bad[:5]}")


@pytest.mark.parametrize("strategy", ["bottomleft", "slot"])
def test_criterion_5_adversary_lower_bound(strategy):
    m = 100
    transcript = adversary_run(STRATEGIES[strategy], m, EPS)
    h = transcript.final_height
    lemma8 = all(rec.height_after >= F(5, 4) * (i + 1) - F(1, 4)
                 for i, rec in enumerate(transcript.iterations))
    opt = optimal_packing_for_transcript(transcript)   # verifies itself
    ratio = h / opt.height
    check(f"acceptance-5-adversary-{strategy}",
          lemma8 and ratio >= F(122, 100),
          f"H_{m}={h}, optimum={opt.height}, ratio~{float(ratio):.4f}")


def test_criterion_6_slot_killer():
    seq = slot_killer_instance(6, F(1, 2 ** 12), 2 ** 12)
    p = pack(SlotState, seq)
    area = sum(it.side ** 2 for it in seq)
    ratio = p.height / area
    check("acceptance-6-slot-killer", ratio >= F(19, 10),
          f"height/area = {ratio} (~{float(ratio):.4f}) >= 19/10")


def test_criterion_7_reachability_oracle():
    step = F(1, 64)
    disagreements = 0
    queried = 0
    for seed in range(200):
        rng = random.Random(2_000_000 + seed)
        n = rng.randint(1, 8)
        seq = [SquareItem(i, F(rng.randint(1, 16), 16))
               for i in range(1, n + 1)]
        p = pack(BottomLeftState, seq)
        a = F(rng.randint(1, 16), 16)
        reach, nx, ny = grid_bfs_reachable(p, a, step)
        for iy in range(ny + 1):
            spans = at_level(p, a, iy * step)
            k = 0
            for ix in range(nx + 1):
                x = ix * step
                while k < len(spans) and spans[k][1] < x:
                    k += 1
                analytic = k < len(spans) and spans[k][0] <= x <= spans[k][1]
                queried += 1
                if analytic != ((ix, iy) in reach):
                    disagreements += 1
    check("acceptance-7-reachability-oracle", disagreements == 0,
          f"{queried} grid placements on 200 instances, "
          f"{disagreements} disagreements")


def _mutate_overlap(seq, p):
    shift = F(1, 32)
    pls = list(p.placements)
    right = lambda q: q.x + q.item.side
    for j, pl in enumerate(pls):
        for other in pls[:j]:
            if right(other) == pl.x \
                    and min(other.top, pl.top) > max(other.y, pl.y):
                pls[j] = Placement(pl.item, pl.x - shift, pl.y)
                return pls, j + 1
            if other.top == pl.y \
                    and min(right(other), right(pl)) > max(other.x, pl.x):
                pls[j] = Placement(pl.item, pl.x, pl.y - shift)
                return pls, j + 1
    raise AssertionError("no touching pair to mutate")


def _mutate_float(seq, p):
    pls = list(p.placements)
    j = max(range(len(pls)), key=lambda i: (pls[i].top, i))
    pls[j] = Placement(pls[j].item, pls[j].x, p.height + F(1, 32))
    return pls, j + 1


def _extend_sealed(seq, p):
    h = p.height
    n = len(seq)
    extra = [
        (SquareItem(n + 1, F(1)), F(0), h),
        (SquareItem(n + 2, F(1, 4)), F(0), h + 1),
        (SquareItem(n + 3, F(1, 4)), F(3, 4), h + 1),
        (SquareItem(n + 4, F(1)), F(0), h + F(5, 4)),
        (SquareItem(n + 5, F(1, 4)), F(3, 8), h + 1),   # inside the cavity
    ]
    seq2 = list(seq) + [item for item, _, _ in extra]
    pls2 = list(p.placements) + [Placement(it, x, y) for it, x, y in extra]
    return seq2, pls2, n + 5


def test_criterion_8_verifier_sensitivity(corpus):
    failures = []
    for seq, p in corpus["packings"]:
        pls, step = _mutate_overlap(seq, p)
        rep = verify_packing(seq, pls)
        if rep != f"overlap at step {step}":
            failures.append(("overlap", rep))
        pls, step = _mutate_float(seq, p)
        rep = verify_packing(seq, pls)
        if rep != f"unsupported at step {step}":
            failures.append(("float", rep))
        seq2, pls2, step = _extend_sealed(seq, p)
        rep = verify_packing(seq2, pls2)
        if rep != f"unreachable at step {step}":
            failures.append(("sealed", rep))
    check("acceptance-8-verifier-sensitivity", not failures,
          f"300 mutations over 100 packings rejected with correct classes"
          if not failures else f"misclassified: {failures[:5]}")


def test_criterion_9_lemma_assertions(corpus):
    failures = corpus["lemma_failures"]
    detail = "no lemma assertion tripped on the corpus"
    if failures:
        seed, name, sides = failures[0]
        detail = f"{name} tripped on seed {seed}; instance: {' '.join(sides)}"
    check("acceptance-9-lemma-assertions", not failures, detail)
