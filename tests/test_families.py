"""Structured side families: both strategies, n in 5-60.

Seven families whose equal sides, touching corners and coincident edges
random sides on the 2^-20 grid almost never produce: dyadic sides, unit
fractions, four fixed values, sides just over 1/2 mixed with small ones,
tiny sides mixed with ones near 1, multiples of 1/27, and sixteenths of at
most 1/2, where a hole's last square often meets the one before it at a
single corner.  Every packing must pass the verifier and every analysis
``CHECK``, and BottomLeft must place each square where the full-scan
reference does.  The instances come from seeded generators and are fixed
data: they are never shrunk.
"""

import random
from fractions import Fraction as F

import pytest

from strippack.cli import STRATEGIES
from strippack.holes import run_bottomleft_analysis
from strippack.packing import SquareItem, close_packing, pack, verify_packing
from strippack.shadows import charge_map, check_slot_bounds
from test_bottomleft import FullScanChecked

FIXED = (F(1, 4), F(1, 3), F(1, 2), F(3, 5))

FAMILIES = {
    "dyadic": lambda rng: F(rng.randint(1, 64), 64),
    "unit": lambda rng: F(1, rng.randint(1, 12)),
    "fixed": lambda rng: rng.choice(FIXED),
    "over-half": lambda rng: (F(1, 2) + F(rng.randint(1, 20), 1000)
                              if rng.random() < 0.5
                              else F(rng.randint(1, 16), 128)),
    "tiny-near-one": lambda rng: (F(rng.randint(1, 16), 1024)
                                  if rng.random() < 0.5
                                  else 1 - F(rng.randint(0, 16), 256)),
    "27ths": lambda rng: F(rng.randint(1, 27), 27),
    "coarse-half": lambda rng: F(rng.randint(1, 8), 16),
}

SEEDS = 50              # instances per family and strategy
FULL_SCAN_SEEDS = 10    # of those, BottomLeft against the full scan


def family_items(family: str, seed: int) -> list[SquareItem]:
    rng = random.Random(f"family:{family}:{seed}")
    side = FAMILIES[family]
    return [SquareItem(i, side(rng))
            for i in range(1, rng.randint(5, 60) + 1)]


def failed_checks(strategy: str, p) -> list[str]:
    if strategy == "bottomleft":
        checks = run_bottomleft_analysis(p).checks
    else:
        closed = close_packing(p)
        checks = check_slot_bounds(closed, charge_map(closed))
    return [c.line() for c in checks if not c.ok]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_and_checks(family, strategy):
    for seed in range(SEEDS):
        seq = family_items(family, seed)
        p = pack(STRATEGIES[strategy], seq)
        failure = verify_packing(seq, p.placements)
        assert failure is None, (seed, failure)
        assert not failed_checks(strategy, p), seed


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bottomleft_matches_full_scan(family):
    for seed in range(FULL_SCAN_SEEDS):
        pack(FullScanChecked, family_items(family, seed))
