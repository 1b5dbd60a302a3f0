"""Scaling ladder: the per-instance CLI operations at growing n.

    python3 bench/ladder.py

One random instance per size n in SIZES (sides on the 2^-20 grid in
[1/64, 1], from Random("ladder:<SEED>:<n>")) goes once through run, verify
and analyze for both strategies, with the benchmark's runner and checks.
Prints one row of reference seconds (see speed.py) per size.  Not part of
the timed benchmark: n=240 alone takes about a minute today, most of it in
``analyze --strategy bottomleft``.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import run
import workloads
from speed import Speed

COLUMNS = ["run_bl", "run_slot", "verify", "analyze_bl", "analyze_slot"]
SIZES = (30, 60, 120, 240)
SEED = 1


def main() -> int:
    if not run.use_sources():
        return 2
    work = run.WORK / f"ladder-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        program = run.import_program()
        print(f"{'n':>5} " + " ".join(f"{c + '_s':>14}" for c in COLUMNS))
        for n in SIZES:
            rng = random.Random(f"ladder:{SEED}:{n}")
            sides = workloads.random_sides(rng, n)
            path = work / f"ladder-{n}.txt"
            path.write_text("".join(workloads.fmt(a) + "\n" for a in sides))
            inst = workloads.Instance(f"ladder-{n}", sides, path)
            with Speed() as speed:
                runner = run.Runner(program, speed)
                workloads.instance_ops(runner, inst, False, SEED, work)
            row = " ".join(f"{speed.seconds(*runner.intervals[c][0]):14.3f}"
                           for c in COLUMNS)
            flag = "" if not runner.failures else "  FAILED: " + \
                "; ".join(runner.failures)
            print(f"{n:>5} {row}{flag}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
