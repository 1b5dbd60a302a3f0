"""The bench's output digests stay pinned.

``bench/digest.py --seed 101`` replays every bench workload untraced and
prints one digest per workload over all of its output: placement CSVs,
``analyze`` reports, ``CHECK`` lines, verifier verdicts and adversary
transcripts.  A refactor that changes any byte of that output changes a
digest here."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "corpus": "439032b1cf3894b6",
    "large": "3041442534d2236f",
    "adversary": "d868732d8d3c3e95",
    "slot-deep": "88522946e20a6886",
}


def test_bench_digests_seed_101():
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "digest.py"), "--seed", "101"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    found = {m[0]: (m[1], int(m[2])) for m in re.findall(
        r"^(\S+)\s+([0-9a-f]{16})  \d+ distinct operations, (\d+) failed$",
        out.stdout, re.M)}
    assert found == {name: (digest, 0) for name, digest in DIGESTS.items()}
