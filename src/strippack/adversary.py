"""Adaptive lower-bound adversary and its matching near-optimal packer.

Each iteration sends two quarter squares.  If the strategy stacks them
directly at the previous height the iteration continues with one square of
side 3/4+eps (which cannot pass the stack); otherwise it continues with a
square of side 1/2+eps and two halves.  Either way the strategy's height
grows by at least 5/4 per iteration on average, while the same squares fit
into bands of height 1+eps that also satisfy the Tetris and gravity rules.

The band packing, built and checked square by square on the lattice, keeps
a flat ledge over [0, 3/4+eps] at all times, so iterations chain regardless
of the mix of types:

  type I   quarters side by side on the ledge, the big square on top;
  type II  the 1/2+eps square on the ledge at the wall, the quarter pair
           stacked flush against its right side, the halves side by side on
           top (the right one slides down along the seam at x = 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numbers import HALF, ONE, ZERO, Scalar
from .packing import Packing, PackingError, SquareItem, check_step, replay_steps

QUARTER = Fraction(1, 4)

TYPE_I = "I"
TYPE_II = "II"


def classify_iteration(at1, at2, h_prev: int) -> str:
    """Type I iff the two quarters, at lattice rects ``at1`` and ``at2``,
    are stacked directly at the previous height ``h_prev``, in units of the
    same lattice: one's bottom on the other's top with positive x-overlap,
    and the lower bottom exactly at h_prev."""
    lower, upper = (at1, at2) if at1[2] <= at2[2] else (at2, at1)
    stacked = (upper[2] == lower[3]
               and upper[0] < lower[1] and lower[0] < upper[1])
    if stacked and lower[2] == h_prev:
        return TYPE_I
    return TYPE_II


def _band(kind: str, eps: Scalar) -> list[tuple[Scalar, Scalar, Scalar]]:
    """The squares of one iteration of type ``kind`` as ``(side, x, y)``, in
    the order the adversary sends them, with ``(x, y)`` each square's place
    in the iteration's band above the band's base."""
    if kind == TYPE_I:
        return [(QUARTER, ZERO, ZERO), (QUARTER, QUARTER, ZERO),
                (Fraction(3, 4) + eps, ZERO, QUARTER)]
    big = HALF + eps
    return [(QUARTER, big, ZERO), (QUARTER, big, QUARTER), (big, ZERO, ZERO),
            (HALF, ZERO, big), (HALF, HALF, big)]


@dataclass(frozen=True)
class IterationRecord:
    kind: str
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
        """One line per iteration; the sides of a type I iteration are
        padded to five with zeros."""
        sides = {k: " ".join(([str(a) for a, _, _ in _band(k, self.epsilon)]
                              + ["0"] * 5)[:5]) for k in (TYPE_I, TYPE_II)}
        return "\n".join([f"epsilon {self.epsilon}"] + [
            f"iteration {i} type {rec.kind} sides {sides[rec.kind]} "
            f"height {rec.height_after}"
            for i, rec in enumerate(self.iterations, 1)])


def adversary_run(strategy, m: int, eps: Scalar) -> AdversaryTranscript:
    """Play m adaptive iterations against a fresh ``strategy()`` (see
    ``packing.pack`` for the protocol).

    Every placement the strategy returns is checked by ``check_step``
    against the packing before it, on the lattice and skyline they share;
    an invalid one aborts naming the square and violation.
    """
    if m < 1:
        raise PackingError("need at least one iteration")
    if not (ZERO < eps < QUARTER):
        raise PackingError("epsilon must be in (0, 1/4)")
    state = strategy()

    def send(side: Scalar) -> None:
        before = state.packing
        count = len(before) + 1
        violation = check_step(before, state.place(SquareItem(count, side)))
        if violation:
            raise PackingError(f"strategy square {count}: {violation}")

    tails = {k: [a for a, _, _ in _band(k, eps)[2:]] for k in (TYPE_I, TYPE_II)}
    records = []
    h_prev = ZERO
    for _ in range(m):
        send(QUARTER)
        send(QUARTER)
        p = state.packing       # the quarters' rects and h_prev on one scale
        h, = p.units(h_prev)
        kind = classify_iteration(*p.lattice()[1][-2:], h)
        for side in tails[kind]:
            send(side)
        h_prev = state.packing.height
        records.append(IterationRecord(kind, h_prev))
    return AdversaryTranscript(eps, records, state.packing)


def optimal_packing_for_transcript(t: AdversaryTranscript) -> Packing:
    """A verified packing of the transcript's squares using bands of height
    1 + eps per iteration (so height <= m*(1 + 2*eps)), built and checked
    on the lattice: each kind's rows are converted once, and every square
    is checked by ``check_step`` as in the verifier's replay."""
    p, eps = Packing(), t.epsilon
    if not ZERO < eps < QUARTER:
        raise PackingError(
            f"optimal construction invalid: epsilon {eps} outside (0, 1/4)")
    kinds = {k: _band(k, eps) for k in (TYPE_I, TYPE_II)}
    band = p.units(ONE + eps, *(v for k in kinds for row in kinds[k]
                                for v in row))[0]
    rows = {k: [(a, *p.units(a, x, y)) for a, x, y in kinds[k]] for k in kinds}
    squares = ((a, s, x, i * band + y) for i, rec in enumerate(t.iterations)
               for a, s, x, y in rows[rec.kind])
    failure, packing = replay_steps(p, (
        (SquareItem(n, a), (x, x + s, y, y + s))
        for n, (a, s, x, y) in enumerate(squares, 1)))
    if failure:
        raise PackingError(f"optimal construction invalid: {failure}")
    return packing
