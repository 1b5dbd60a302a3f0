"""The slot strategy: dyadic side rounding, lowest-slot selection, and a
vertical drop along the chosen slot's left boundary.

The strip is divided, for every level k, into 2^k slots of width 2^-k.  A
square is rounded up to the nearest power of 1/2 and dropped in the level-k
slot with the lowest rest height (ties to the leftmost slot).  Per-level
rest heights are cached and updated incrementally; they always equal the
geometric rest height over the slot's open interior, which tests cross-check
against the raw packing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .geometry import StepProfile
from .numbers import ONE, ZERO, Scalar
from .packing import Packing, PackingError, Placement, SquareItem


def round_to_dyadic(a: Scalar) -> tuple[int, Scalar]:
    """Smallest power 2^-k with 2^-k >= a; returns (k, 2^-k)."""
    if not (ZERO < a <= ONE):
        raise PackingError(f"side {a} outside (0, 1]")
    k = 0
    w = ONE
    while w / 2 >= a:
        w /= 2
        k += 1
    return k, w


class SlotId:
    """Slot of width 2^-level with x-range [index*2^-level, (index+1)*2^-level]."""

    __slots__ = ("level", "index")

    def __init__(self, level: int, index: int):
        if not (0 <= index < 2 ** level):
            raise PackingError(f"slot index {index} out of range at level {level}")
        self.level = level
        self.index = index

    @property
    def width(self) -> Scalar:
        return Fraction(1, 2 ** self.level)

    @property
    def left(self) -> Scalar:
        return self.index * self.width

    @property
    def right(self) -> Scalar:
        return (self.index + 1) * self.width

    def __eq__(self, other):
        return (isinstance(other, SlotId)
                and (self.level, self.index) == (other.level, other.index))

    def __hash__(self):
        return hash((self.level, self.index))

    def __repr__(self):
        return f"SlotId({self.level}, {self.index})"


class SlotState:
    """The slot strategy, one square at a time: placements, skyline and
    per-level slot heights."""

    def __init__(self):
        self._placements: list[Placement] = []
        self._profile = StepProfile.constant(ZERO)
        self._heights: dict[int, list[Scalar]] = {}
        self._packing: Optional[Packing] = None

    @property
    def packing(self) -> Packing:
        """Built on first use, then extended with every square placed."""
        if self._packing is None:
            self._packing = Packing(self._placements)
        return self._packing

    def _level_heights(self, k: int) -> list[Scalar]:
        cached = self._heights.get(k)
        if cached is None:
            w = Fraction(1, 2 ** k)
            cached = [self._profile.max_over(j * w, (j + 1) * w)
                      for j in range(2 ** k)]
            self._heights[k] = cached
        return cached

    def drop_height(self, slot: SlotId) -> Scalar:
        return self._level_heights(slot.level)[slot.index]

    def choose(self, k: int) -> SlotId:
        heights = self._level_heights(k)
        best = min(range(len(heights)), key=lambda j: (heights[j], j))
        return SlotId(k, best)

    def place(self, item: SquareItem) -> Placement:
        k, _ = round_to_dyadic(item.side)
        slot = self.choose(k)
        x = slot.left
        # the physical drop stops where the square itself lands; in the rare
        # case the slot's interior max sits beyond the footprint this is
        # lower, and it is what keeps the placement supported
        y = self._profile.max_over(x, x + item.side) if self._placements else ZERO
        pl = Placement(item, x, y)
        self._record(pl)
        return pl

    def _record(self, pl: Placement) -> None:
        self._placements.append(pl)
        if self._packing is not None:
            self._packing = self._packing.extended(pl)
        self._profile = self._profile.raised(pl.left, pl.right, pl.top)
        for k, heights in self._heights.items():
            w = Fraction(1, 2 ** k)
            j0 = int(pl.left / w)
            for j in range(j0, 2 ** k):
                lo = j * w
                if lo >= pl.right:
                    break
                if heights[j] < pl.top:
                    heights[j] = pl.top


def slot_killer_instance(k: int, delta: Scalar, n: int) -> list[SquareItem]:
    """n squares of side 2^-k + delta; delta must keep the rounded width at
    2^-(k-1) so every slot wastes almost half its width."""
    if k < 1 or n < 1:
        raise PackingError("need k >= 1 and n >= 1")
    side = Fraction(1, 2 ** k) + delta
    if not (ZERO < delta and side <= ONE):
        raise PackingError(f"delta {delta} out of range")
    level, width = round_to_dyadic(side)
    if level != k - 1:
        raise PackingError(
            f"side {side} rounds to width {width}, not 2^-{k - 1}")
    return [SquareItem(i, side) for i in range(1, n + 1)]
