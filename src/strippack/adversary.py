"""Adaptive lower-bound adversary and its matching near-optimal packer.

Each iteration sends two quarter squares.  If the strategy stacks them
directly at the previous height the iteration continues with one square of
side 3/4+eps (which cannot pass the stack); otherwise it continues with a
square of side 1/2+eps and two halves.  Either way the strategy's height
grows by at least 5/4 per iteration on average, while the same squares fit
into bands of height 1+eps that also satisfy the Tetris and gravity rules.

The band constructions keep a flat ledge over [0, 3/4+eps] at all times, so
iterations chain regardless of the mix of types:

  type I   quarters side by side on the ledge, the big square on top;
  type II  the 1/2+eps square on the ledge at the wall, the quarter pair
           stacked flush against its right side, the halves side by side on
           top (the right one slides down along the seam at x = 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numbers import HALF, ONE, ZERO, Scalar
from .packing import (Packing, PackingError, Placement, SquareItem,
                      check_step, verify_packing)

QUARTER = Fraction(1, 4)

TYPE_I = "I"
TYPE_II = "II"

def classify_iteration(pl1: Placement, pl2: Placement,
                       h_prev: Scalar) -> str:
    """Type I iff the two quarters are stacked directly at the previous
    height: one's bottom on the other's top with positive x-overlap, and the
    lower bottom exactly at h_prev."""
    lower, upper = (pl1, pl2) if pl1.y <= pl2.y else (pl2, pl1)
    stacked = (upper.y == lower.top
               and upper.left < lower.right and lower.left < upper.right)
    if stacked and lower.y == h_prev:
        return TYPE_I
    return TYPE_II


@dataclass(frozen=True)
class IterationRecord:
    kind: str
    sides: tuple[Scalar, ...]      # five entries; unsent squares are zero
    height_after: Scalar


@dataclass
class AdversaryTranscript:
    epsilon: Scalar
    iterations: list[IterationRecord]
    packing: Packing

    @property
    def final_height(self) -> Scalar:
        return self.iterations[-1].height_after if self.iterations else ZERO

    def serialize(self) -> str:
        lines = [f"epsilon {self.epsilon}"]
        for i, rec in enumerate(self.iterations, 1):
            sides = " ".join(str(s) for s in rec.sides)
            lines.append(f"iteration {i} type {rec.kind} sides {sides} "
                         f"height {rec.height_after}")
        return "\n".join(lines)


def adversary_run(strategy, m: int, eps: Scalar) -> AdversaryTranscript:
    """Play m adaptive iterations against a fresh ``strategy()`` (see
    ``packing.pack`` for the protocol).

    Every placement the strategy returns is checked against its own packing
    so far; an invalid one aborts naming the square and the violation.
    """
    if m < 1:
        raise PackingError("need at least one iteration")
    if not (ZERO < eps < QUARTER):
        raise PackingError("epsilon must be in (0, 1/4)")
    state = strategy()
    count = 0

    def send(side: Scalar) -> Placement:
        nonlocal count
        count += 1
        before = state.packing
        pl = state.place(SquareItem(count, side))
        violation = check_step(before, pl)
        if violation:
            raise PackingError(f"strategy square {count}: {violation}")
        return pl

    records = []
    h_prev = ZERO
    for _ in range(m):
        pl1 = send(QUARTER)
        pl2 = send(QUARTER)
        kind = classify_iteration(pl1, pl2, h_prev)
        if kind == TYPE_I:
            send(Fraction(3, 4) + eps)
            sides = (QUARTER, QUARTER, Fraction(3, 4) + eps, ZERO, ZERO)
        else:
            send(HALF + eps)
            send(HALF)
            send(HALF)
            sides = (QUARTER, QUARTER, HALF + eps, HALF, HALF)
        h_prev = state.packing.height
        records.append(IterationRecord(kind, sides, h_prev))
    return AdversaryTranscript(eps, records, state.packing)


def optimal_packing_for_transcript(t: AdversaryTranscript) -> Packing:
    """A verified packing of the transcript's squares using bands of height
    1 + eps per iteration (so height <= m*(1 + 2*eps))."""
    eps = t.epsilon
    base = ZERO
    placements: list[Placement] = []
    count = 0

    def put(side: Scalar, x: Scalar, y: Scalar):
        nonlocal count
        count += 1
        placements.append(Placement(SquareItem(count, side), x, y))

    for rec in t.iterations:
        if rec.kind == TYPE_I:
            put(QUARTER, ZERO, base)
            put(QUARTER, QUARTER, base)
            put(Fraction(3, 4) + eps, ZERO, base + QUARTER)
        else:
            big = HALF + eps
            put(QUARTER, big, base)
            put(QUARTER, big, base + QUARTER)
            put(big, ZERO, base)
            put(HALF, ZERO, base + big)
            put(HALF, HALF, base + big)
        base += ONE + eps
    items = [pl.item for pl in placements]
    report = verify_packing(items, placements)
    if not report.ok:
        raise PackingError(f"optimal construction invalid: {report.describe()}")
    return Packing(tuple(placements))
