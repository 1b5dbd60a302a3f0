"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each checker gets a right output, which it must accept, and seeded wrong
outputs, each of which it must flag.  Exits 1 if any case goes the wrong
way.  Needs only the benchmark's files, not strippack.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F

import checks
import workloads

HALF, QUARTER = F(1, 2), F(1, 4)
EPS = workloads.EPS


def packing_case(rows, stdout=None, slot=False):
    sides = [a for a, _, _ in rows]
    height = max(y + a for a, _, y in rows)
    out = stdout if stdout is not None else f"height {height}\n"
    return lambda: checks.check_run(out, workloads.csv_text(rows), sides, slot)


GOOD_ROWS = [(HALF, F(0), F(0)), (HALF, HALF, F(0)), (QUARTER, F(0), HALF)]
GOOD_SLOT = [(F(3, 8), F(0), F(0)), (QUARTER, HALF, F(0)),
             (F(3, 8), HALF, QUARTER)]


def analyze_bl(area="1/2", check="PASS", charge="1/2"):
    out = (f"hole 1: kind=interior type=I lid=real area={area} bound=1\n"
           f"square 1: charge={charge}\n"
           f"CHECK height-identity {check} 3/4 == 1/4 + 1/2\n")
    return lambda: checks.check_analyze_bl(out, [HALF], F(3, 4))


def analyze_slot(charged="1/13", height=HALF):
    out = (f"square 1: charged-area {charged}\n"
           "CHECK theorem2 PASS\n")
    return lambda: checks.check_analyze_slot(out, [HALF], height)


def adversary(heights=("3/2", "3"), optimal="101/50", kinds=("II", "II")):
    sides = {"I": "1/4 1/4 79/100 0 0", "II": "1/4 1/4 51/100 1/2 1/2"}
    lines = [f"epsilon {EPS}"] + [
        f"iteration {i} type {k} sides {sides[k]} height {h}"
        for i, (k, h) in enumerate(zip(kinds, heights), start=1)]
    out = (f"iterations 2\nstrategy-height {F(heights[-1])} (~3)\n"
           f"optimal-height {optimal} (~2.02)\nratio 3/2 (~1.5)\n"
           "CHECK adversary-lemma8 PASS\n")
    return lambda: checks.check_adversary(out, "\n".join(lines), 2, EPS)


def killer(height):
    return lambda: checks.check_killer(f"height {height}\n", 6, F(1, 4096), 64)


def corrupted(kind):
    rng = random.Random(1)
    bad, _ = workloads.CORRUPTIONS[kind](GOOD_ROWS, rng)
    return lambda: checks.check_packing(bad)


RIGHT = {
    "valid packing": packing_case(GOOD_ROWS),
    "slot-aligned packing": packing_case(GOOD_SLOT, slot=True),
    "verifier verdict": lambda: checks.check_verify("overlap at step 3\n",
                                                    "overlap at step 3"),
    "hole report": analyze_bl(),
    "charged-area report": analyze_slot(),
    "adversary transcript": adversary(),
    "killer height": killer("65/2048"),
}

WRONG = {
    "overlapping squares": packing_case(
        [(HALF, F(0), F(0)), (HALF, QUARTER, F(0))]),
    "square outside the strip": packing_case([(HALF, F(3, 4), F(0))]),
    "floating square": packing_case(
        [(HALF, F(0), F(0)), (QUARTER, F(0), F(3, 4))]),
    "corner-only support": packing_case(
        [(HALF, F(0), F(0)), (QUARTER, HALF, HALF)]),
    "reported height differs": packing_case(GOOD_ROWS, "height 1/2\n"),
    "off-slot x": packing_case(
        [(F(3, 8), QUARTER, F(0))], slot=True),
    "wrong verifier class": lambda: checks.check_verify(
        "unsupported at step 3\n", "overlap at step 3"),
    "wrong hole sum": analyze_bl(area="1/4"),
    "failing CHECK line": analyze_bl(check="FAIL"),
    "charge above 5/2": analyze_bl(charge="3"),
    "charged area above 8/13 a^2": analyze_slot(charged="1/4"),
    "height above 2A + charged areas": analyze_slot(charged="0", height=F(2)),
    "adversary height below 5i/4 - 1/4": adversary(heights=("3/2", "2")),
    "adversary optimal height": adversary(optimal="2"),
    "adversary sides off type": adversary(kinds=("I", "II")),
    "wrong killer height": killer("65/4096"),
    "overlap corruption is an overlap": corrupted("overlap"),
    "float corruption is unsupported": corrupted("float"),
}


def main() -> int:
    bad = 0
    for name, case in RIGHT.items():
        try:
            case()
            print(f"ok      accepts {name}")
        except checks.CheckError as exc:
            bad += 1
            print(f"WRONG   rejects {name}: {exc}")
    for name, case in WRONG.items():
        try:
            case()
            bad += 1
            print(f"WRONG   accepts {name}")
        except checks.CheckError as exc:
            print(f"ok      flags {name}: {exc}")
    print(f"{len(RIGHT) + len(WRONG) - bad}/{len(RIGHT) + len(WRONG)} cases ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
