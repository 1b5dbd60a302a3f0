"""The slot strategy: dyadic side rounding, lowest-slot selection, and a
vertical drop along the chosen slot's left boundary.

The strip is divided, for every level k, into 2^k slots of width 2^-k; a
slot is its index j, and spans [j 2^-k, (j+1) 2^-k].  A square is rounded
up to the nearest power of 1/2 and dropped in the level-k slot with the
lowest rest height (ties to the leftmost slot).  The strategy keeps its
packing and the last side's conversion: it reads the skyline that the
packing's lattice keeps, one step profile of the tops on the lattice's
integers, raised in place and rescaled with the lattice.  The lowest slot
is found among the skyline's candidate cells: the leftmost whole slot of
each segment and every slot that straddles a breakpoint.  One scan lists
them at every width.  The skyline keeps the candidates of the width it was
last asked about, through a rescale too, so a square of the same level as
the one before it rescans only the slots that square touched, and a square
of a new level lists them all once.  No level keeps a table of its 2^k
slots, and a level is bounded only by the size of the integers.  A
placement makes no Fraction and converts the side and its width only if
the side is a new object or the scale changed.  Tests cross-check every
choice against the rest heights of the raw packing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .numbers import ONE, ZERO, Scalar
from .packing import Packing, PackingError, SquareItem


def round_to_dyadic(a: Scalar) -> tuple[int, Scalar]:
    """Smallest power 2^-k with 2^-k >= a; returns (k, 2^-k).

    For a = p/q, k is the largest integer with p * 2^k <= q, which is the
    difference of the bit lengths or one less.  Callers pass a square's
    side or a value already checked to lie in (0, 1]."""
    p, q = a.numerator, a.denominator
    k = q.bit_length() - p.bit_length()
    if p << k > q:
        k -= 1
    return k, _dyadic(k)


@lru_cache(maxsize=64)
def _dyadic(k: int) -> Fraction:
    """2^-k, built once for the levels in use."""
    return Fraction(1, 1 << k)


class SlotState:
    """The slot strategy, one square at a time, on its packing and the
    skyline of the packing's lattice."""

    def __init__(self):
        self.packing = Packing()
        self._last = (None, 0, 0, 0)    # side, scale, w, s of the last square

    def choose(self, w: int, sky) -> int:
        """Index j of the leftmost lowest slot [j w, (j+1) w] for a width
        ``w`` in lattice units, on the packing's skyline ``sky``."""
        return sky.lowest_cell(w)

    def place(self, item: SquareItem) -> tuple[int, int, int, int]:
        a = item.side
        p = self.packing
        sky = p.skyline()               # its end is the lattice's scale
        side, scale, w, s = self._last
        if a is not side or sky.end != scale:
            w, s = p.units(round_to_dyadic(a)[1], a)
            self._last = a, sky.end, w, s
        l = self.choose(w, sky) * w
        r = l + s
        # the physical drop stops where the square itself lands; in the rare
        # case the slot's interior max sits beyond the footprint this is
        # lower, and it is what keeps the placement supported
        b = sky.max_over(l, r)
        at = (l, r, b, b + s)
        self.packing = p.extended(item, at)
        return at


def slot_killer_instance(k: int, delta: Scalar, n: int) -> list[SquareItem]:
    """n squares of side 2^-k + delta; delta must keep the rounded width at
    2^-(k-1) so every slot wastes almost half its width."""
    if k < 1 or n < 1:
        raise PackingError("need k >= 1 and n >= 1")
    # the side rounds to 2^-(k-1) exactly when 0 < delta <= 2^-k
    if not (ZERO < delta <= ONE and k <= round_to_dyadic(delta)[0]):
        raise PackingError(
            f"delta {delta} out of range: need 0 < delta <= 2^-{k}")
    side = Fraction(1, 2 ** k) + delta
    return [SquareItem(i, side) for i in range(1, n + 1)]
