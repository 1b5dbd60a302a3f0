"""Output digests of every workload, for comparing two commits byte for byte.

    python3 bench/digest.py --seed 1

Replays each workload's traced-run rounds, untraced and without timing, and
prints one digest per workload over every operation's stdout and output
files (CSVs, analyze reports, adversary transcripts).  The per-operation
digests go to .bench_work/digests-seed<seed>.json.  The digest of a
workload equals the ``digest`` field of a ``--trace 1`` result file for the
same seed.  Digests are reported, never gated on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import run
import workloads
from speed import Speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not run.use_sources():
        return 2
    report = {}
    for name, plan in workloads.PLANS.items():
        work = run.WORK / f"digest-{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            with Speed() as speed:
                program, instances = run.setup(name, args.seed, work, speed)
                runner = run.Runner(program, speed)
                run.play(runner, plan, instances, args.seed, work,
                         rounds=plan.trace_rounds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        digests = dict(sorted(runner.digests.items()))
        combined = hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]
        failed = sum(runner.failed.values())
        print(f"{name:10s} {combined}  {len(digests)} distinct operations, "
              f"{failed} failed")
        report[name] = {"digest": combined, "failed": failed,
                        "operations": digests}
    path = run.WORK / f"digests-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
