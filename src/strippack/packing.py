"""Packing model and the independent validity verifier.

A packing is an ordered sequence of axis-aligned square placements in the
semi-infinite strip [0,1] x [0,inf).  The verifier replays the arrival
order; per step, ``check_step`` names the first of these rules broken:

  * overlap-freeness (closed squares, interiors disjoint, inside the strip),
  * gravity: the square rests on the strip bottom or on another square's top
    with positive-length contact (corner contact is not support),
  * a monotone-descent collision-free path from above the packing exists
    (the square may move left/right/down; sliding along touching boundaries
    is legal, so configuration obstacles are open rectangles).

Each packing keeps its squares on one integer lattice (``_Lattice``, the
only place where a rational becomes an integer), indexed by bottom; the
step checks, the downward reachability sweep and the BottomLeft search run
on it.  The rescaling is exact, so no semantics change, and because sides
are at most 1 a check reads only the squares whose bottoms lie between 1
below the arriving square's bottom and its top.  ``check_step`` reads the
lattice's skyline of the tops first: if the square lies in the strip and
m, the highest top over its open x-range, is at most its bottom b, no
earlier square reaches above b there, so (1) none overlaps it, (2) its
straight drop from above is clear, obstacles being open, and (3) it is
supported exactly when b == 0 or m == b.  Other squares go to
``check_rules``, so every verdict stays the same.  A packing grows as online
placement does, at the newest snapshot only, by a square and its rect.
``recheck_packing`` replays a packing's own rects at their scale, to the
verdict of ``verify_packing``, as no rule depends on the scale.  Outputs
read the items and rects too; a ``Placement`` is only a parsed CSV row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Optional, Sequence

from .geometry import Rect, StepProfile
from .numbers import ONE, ZERO, Scalar


class PackingError(ValueError):
    pass


@dataclass(frozen=True)
class SquareItem:
    """An arriving square: 1-based arrival index and exact side length."""

    index: int
    side: Scalar

    def __post_init__(self):
        if not 0 < self.side.numerator <= self.side.denominator:
            raise PackingError(f"side {self.side} outside (0, 1]")


@dataclass(frozen=True)
class Placement:
    """A square's corner, as a CSV row gives it to ``verify_packing``."""

    item: SquareItem
    x: Scalar
    y: Scalar


class _Lattice:
    """The integer coordinates of a chain of packings, and the one place
    where a rational becomes an integer (``units``).

    ``items[i]`` is square i and ``rects[i]`` its ``(l, r, b, t)`` times
    ``scale``, the LCM of every denominator fitted so far.  ``bottoms``
    holds every ``b`` in ascending order and ``order`` the square index of
    each.  The snapshots of one chain share a lattice and each reads the
    first entries, as many as it has squares; only the newest appends.
    ``sky`` is the skyline of the first ``sky_n`` rects
    (``Packing.skyline``).  Rescaling multiplies every entry and ``sky`` in
    place, which changes the representation and not the geometry, so it
    keeps every sharing snapshot valid.  The verifier knows every placement
    at once and fits them all first.
    """

    __slots__ = ("scale", "items", "rects", "bottoms", "order", "sky", "sky_n")

    def __init__(self, scale: int = 1):
        self.scale = scale
        self.items: list[SquareItem] = []
        self.rects: list[tuple[int, int, int, int]] = []
        self.bottoms: list[int] = []
        self.order: list[int] = []
        self.sky: Optional[StepProfile] = None
        self.sky_n = 0

    def fit(self, *values: Scalar) -> None:
        """Rescale, if needed, so that ``scale`` is a multiple of every
        value's denominator."""
        scale = self.scale
        for v in values:
            if scale % v.denominator:
                scale = lcm(scale, v.denominator)
        if scale != self.scale:
            f = scale // self.scale
            self.rects = [(l * f, r * f, b * f, t * f)
                          for l, r, b, t in self.rects]
            self.bottoms = [b * f for b in self.bottoms]
            if self.sky is not None:
                self.sky.scale_by(f)
            self.scale = scale

    def units(self, *values: Scalar) -> list[int]:
        """The values times ``scale``, fitted to them first if needed."""
        out = []
        for v in values:
            f, rest = divmod(self.scale, v.denominator)
            if rest:
                self.fit(*values)
                return [u.numerator * (self.scale // u.denominator)
                        for u in values]
            out.append(v.numerator * f)
        return out

    def append(self, item: SquareItem, at) -> None:
        k = bisect_right(self.bottoms, at[2])
        self.bottoms.insert(k, at[2])
        self.order.insert(k, len(self.items))
        self.items.append(item)
        self.rects.append(at)


class Packing:
    """Immutable ordered packing on its integer lattice, and the index of
    its topmost square (the first of equal tops), whose top is the
    ``height``.  ``Packing(scale)`` is empty, on a lattice of that scale;
    every other comes from ``extended``.  ``items`` lists its squares and
    ``lattice`` their rects; only ``height`` builds a Fraction.

    ``extended`` appends a square and its rect to the lattice this packing
    shares with the one it came from, in O(1) amortized time plus a sorted
    insert, and finds the new top by comparing two lattice integers.  Only
    the newest packing of a chain extends; an older one raises
    ``PackingError``.  ``at``, here and below, is the arriving square's
    lattice ``(l, r, b, t)``.
    """

    __slots__ = ("_lat", "_n", "_top")

    def __init__(self, scale: int = 1):
        self._lat = _Lattice(scale)
        self._n, self._top = 0, -1

    def __len__(self) -> int:
        return self._n

    @property
    def items(self) -> list[SquareItem]:
        return self._lat.items[:self._n]

    @property
    def height(self) -> Scalar:
        lat = self._lat
        return Fraction(lat.rects[self._top][3], lat.scale) if self._n else ZERO

    def extended(self, item: SquareItem, at) -> "Packing":
        lat = self._lat
        if len(lat.items) != self._n:
            raise PackingError(f"square {item.index}: not the newest packing")
        lat.append(item, at)
        top, rects = self._top, lat.rects
        nxt = Packing.__new__(Packing)
        nxt._lat, nxt._n = lat, self._n + 1
        nxt._top = self._n if top < 0 or rects[-1][3] > rects[top][3] else top
        return nxt

    def units(self, *values: Scalar) -> list[int]:
        return self._lat.units(*values)

    def skyline(self) -> StepProfile:
        """The lattice's skyline, raised through this packing's rects.
        Read-only.  A snapshot it has passed raises ``PackingError``; no
        caller reads one: the verifier and the slot strategy read the newest
        packing, the adversary the one before it, through which the slot
        strategy's ``place``, or under BottomLeft the check, raised it."""
        lat = self._lat
        if lat.sky is None:
            lat.sky = StepProfile(lat.scale)
        elif self._n < lat.sky_n:
            raise PackingError(f"skyline raised past square {self._n}")
        for l, r, _, t in lat.rects[lat.sky_n:self._n]:
            if l < 0 or r > lat.scale:      # a query reads only the strip
                l, r = max(l, 0), min(r, lat.scale)
            if l < r:
                lat.sky.raised(l, r, t)
        lat.sky_n = self._n
        return lat.sky

    def lattice(self, *values: Scalar) -> tuple[int, Sequence[tuple[int, int, int, int]]]:
        """``(scale, rects)``: ``rects[i]`` is placement i's ``(l, r, b, t)``
        times ``scale``, and ``scale`` is a multiple of every value's
        denominator.  The rects are read-only."""
        lat = self._lat
        lat.fit(*values)
        rects = lat.rects
        return lat.scale, rects if len(rects) == self._n else rects[:self._n]

    def window(self, lo: int, hi: int) -> list[tuple[int, int, int, int]]:
        """Lattice rects of the placements with ``lo <= b < hi``, on the
        lattice's current scale."""
        lat, n = self._lat, self._n
        bottoms, rects = lat.bottoms, lat.rects
        k0, k1 = bisect_left(bottoms, lo), bisect_left(bottoms, hi)
        return [rects[i] for i in lat.order[k0:k1] if i < n]


def pack(strategy, seq: Sequence[SquareItem]) -> Packing:
    """Place ``seq`` online with a fresh ``strategy()``.

    A strategy is a class whose instances place one square at a time on
    their own ``.packing``: ``place(item)`` extends it by the square and
    returns the square's lattice ``(l, r, b, t)``.
    """
    state = strategy()
    for item in seq:
        state.place(item)
    return state.packing


def close_packing(p: Packing) -> Packing:
    """Append the side-1 closing square; it can only rest at the packing
    height with its left side on the wall."""
    s, t = p._lat.scale, p._lat.rects[p._top][3] if len(p) else 0
    return p.extended(SquareItem(len(p) + 1, ONE), (0, s, t, t + s))


def is_supported(p: Packing, at) -> bool:
    """Gravity check: the square at ``at`` rests on the strip bottom, or on
    some square's top with positive-length x-overlap.

    A top at its bottom b belongs to a square with bottom in ``[b - 1, b)``,
    since sides are at most 1, so only that window is read."""
    l, r, b, _ = at
    return b == 0 or any(qt == b and ql < r and l < qr
                         for ql, qr, _, qt in p.window(b - p._lat.scale, b))


# ---------------------------------------------------------------------------
# reachability sweep
# ---------------------------------------------------------------------------

def reachable_positions(p: Packing, at) -> tuple[int, list[tuple[int, int]]]:
    """Downward plane sweep, for a square of side a whose lattice rect
    ``at`` has its bottom at ``floor``, over the open configuration
    obstacles (l_j - a, r_j) x (b_j - a, t_j), clipped to x in [0, 1-a].

    Returns ``(y, spans)`` on the packing's lattice, where the value v
    stands for v / scale: y is the lowest level at or above ``floor`` that
    a path from above reaches, which is the level where the sweep seals if
    that lies above the floor and the floor otherwise, and ``spans`` are
    the closed left-edge spans reachable exactly at y, in ascending order.

    The sweep reads the levels at or above ``floor`` only: it leaves out
    every square whose top t_j is at or below the floor, and every event
    below the floor.  At every level at or above the floor it finds what a
    sweep over every square and every event finds:

      * A left-out obstacle is open in y, so it holds no configuration at a
        level >= t_j, and a path that never moves up reaches a level y only
        through levels >= y >= floor >= t_j: such an obstacle never meets a
        path to a level at or above the floor.
      * In the sweep, every event of a left-out obstacle lies at or below
        the floor (t_j <= floor and b_j - a < t_j).  Above the floor both
        sweeps see the same events with the same active obstacles, so they
        compute the same spans.  At the floor itself, the spans reachable
        exactly there are computed before the obstacles entering there are
        added, so one entering at t_j = floor changes nothing at that level;
        and if the floor is left with no event at all, it sees the active
        set of the slab above it, whose reachable spans are whole free
        components and so are what the unfloored sweep finds at the floor.

    At each level, the spans reachable there are the free spans of the
    active set that meet the spans of the slab above, and the slab below
    keeps the free spans of the new active set that meet those; one pass
    over the active set, kept sorted, finds either (``_free_meeting``).  A
    square enters the slab below from the level only at a point free in
    both, but a free span below lies wholly in the free set below, so it
    meets that common part exactly where it meets the spans at the level.
    A slab's spans are whole free spans of its active set, so a level where
    no shadow leaves keeps the spans above, and one where none enters
    passes its spans below: a pass per kind of event at most.  Leaving
    shadows only free points, so only an entering shadow seals.

    Only squares with t_j > floor are swept, and t_j <= b_j + 1, so the
    candidates come from the bottom-sorted window b_j > floor - 1.

    The events are fed from the top down, and the sweep stops at the first
    sealed level, so it reads only the squares above that level:

      * Both events of a square lie at or below b_j + 1, since
        b_j - a < t_j <= b_j + 1.  The window is walked in descending order
        of bottom, and a square is pushed onto a max-heap of events while
        the heap is empty or b_j + 1 is at least the heap's highest level.
        A square not yet pushed then has b_j + 1 below that level, and so
        has every one of its events: the highest event on the heap is the
        highest one left in the window, and every event at that level is
        on the heap.  The levels are handled in descending order, each with
        the squares entering and leaving there, exactly as by a sweep over
        the sorted events of the whole window.
      * Once the slab below a level is sealed, nothing below it is
        reachable and the sweep stops, so the squares whose events all lie
        below it are never read.
    """
    lat = p._lat
    sa, low, scale = at[1] - at[0], at[2], lat.scale
    w = scale - sa
    bottoms, order, rects, n = lat.bottoms, lat.order, lat.rects, p._n
    stop = bisect_right(bottoms, low - scale)   # the window b_j > floor - 1
    k = len(bottoms)

    heap: list[tuple[int, bool, int, int]] = []   # (-level, leaves, shadow)
    active: list[tuple[int, int]] = []            # open shadows (l_j - a, r_j)
    lv, r_prev = None, [(0, w)]     # last event level, spans of the slab below
    while True:
        while k > stop and (not heap or bottoms[k - 1] + scale >= -heap[0][0]):
            k -= 1
            l, r, b, t = rects[order[k]]
            if order[k] < n and t > low:
                heappush(heap, (-t, False, l - sa, r))      # activates below
                if b - sa >= low:
                    heappush(heap, (sa - b, True, l - sa, r))   # deactivates
        if not heap:
            return low, r_at if lv == low else r_prev
        lv, entering, departed = -heap[0][0], [], False
        while heap and heap[0][0] == -lv:
            _, leaves, lo, hi = heappop(heap)
            if leaves:
                del active[bisect_left(active, (lo, hi))]
                departed = True
            else:
                entering.append((lo, hi))
        if departed:
            r_prev = _free_meeting(active, w, r_prev)
        r_at = r_prev
        if entering:
            active += entering      # popped in order: sort merges two runs
            active.sort()
            r_prev = _free_meeting(active, w, r_at)
            if not r_prev:
                return lv, r_at     # sealed: nothing below is reachable


def _free_meeting(opens, w, marks):
    """Closed spans of [0, w] outside every open span of the sorted
    ``opens`` that meet a span of ``marks`` (ascending, disjoint), in order;
    a point where two opens touch stays free, as a single-point span.
    Degenerate opens cover nothing."""
    out, cur, j, m = [], 0, 0, len(marks)
    for lo, hi in opens:
        if hi > cur and hi > lo:
            if lo >= cur:
                if lo > w:
                    break
                while j < m and marks[j][1] < cur:
                    j += 1
                if j < m and marks[j][0] <= lo:
                    out.append((cur, lo))
            cur = hi
    if cur <= w:
        while j < m and marks[j][1] < cur:
            j += 1
        if j < m and marks[j][0] <= w:
            out.append((cur, w))
    return out


def is_tetris_reachable(p: Packing, at) -> bool:
    """Is the square at ``at`` reachable from above the packing by a path
    that never moves up and keeps its interior clear of placed squares?"""
    y, spans = reachable_positions(p, at)
    return y == at[2] and any(lo <= at[0] <= hi for lo, hi in spans)


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------

def check_step(sofar: Packing, at) -> Optional[str]:
    """The first rule the arriving square at ``at`` breaks against the
    packing before it, whose squares lie in the strip, or None:
    ``"overlap"``, then ``"unsupported"``, then ``"unreachable"``; settled
    from the skyline as the module docstring says, else by ``check_rules``."""
    l, r, b, _ = at
    if 0 <= l and r <= sofar._lat.scale:
        m = sofar.skyline().max_over(l, r)
        if m < b:
            return "unsupported"
        if m == b:
            return None
    return check_rules(sofar, at)


def check_rules(sofar: Packing, at) -> Optional[str]:
    """``check_step`` by the rules alone, each decided only if every rule
    before it holds.  Only squares with bottom in ``[b - 1, t)`` can
    overlap the square, as sides are at most 1, so only that window is
    tested."""
    lat = sofar._lat
    l, r, b, t = at
    rect = Rect(*at)
    if not (0 <= l and r <= lat.scale and 0 <= b) or any(
            rect.interior_overlaps(Rect(*q))
            for q in sofar.window(b - lat.scale, t)):
        return "overlap"
    if not is_supported(sofar, at):
        return "unsupported"
    if not is_tetris_reachable(sofar, at):
        return "unreachable"
    return None


def verify_packing(seq: Sequence[SquareItem],
                   pls: Sequence[Placement]) -> Optional[str]:
    """Replay arrivals in order through ``check_step`` and stop at the
    first step that breaks a rule: ``"<rule> at step <k>"`` (k 1-based),
    or None if every step holds.  Each step converts its square once, on a
    lattice fitted to all."""
    return _replay(seq, pls)[0]


def recheck_packing(p: Packing) -> Optional[str]:
    """``verify_packing``'s verdict on ``p``'s own squares and rects."""
    scale, rects = p.lattice()
    return replay_steps(Packing(scale), zip(p.items, rects))[0]


def _replay(seq, pls) -> tuple[Optional[str], Packing]:
    """``verify_packing``'s verdict, and the packing of the steps it passed."""
    if len(seq) != len(pls):
        raise PackingError("sequence and placement lists differ in length")
    for item, pl in zip(seq, pls):
        if item.index != pl.item.index or item.side != pl.item.side:
            raise PackingError(f"item mismatch at index {item.index}")
    sofar = Packing()
    sofar._lat.fit(*(v for pl in pls for v in (pl.x, pl.y, pl.item.side)))
    return replay_steps(sofar, (
        (pl.item, (l, l + s, b, b + s)) for pl in pls
        for l, b, s in [sofar._lat.units(pl.x, pl.y, pl.item.side)]))


def replay_steps(sofar: Packing, steps) -> tuple[Optional[str], Packing]:
    """Extend ``sofar`` by each ``(item, at)`` of ``steps`` up to the first
    that ``check_step`` refuses: ``("<rule> at step <k>" or None, packing)``."""
    for step, (item, at) in enumerate(steps, start=1):
        violation = check_step(sofar, at)
        if violation:
            return f"{violation} at step {step}", sofar
        sofar = sofar.extended(item, at)
    return None, sofar


# ---------------------------------------------------------------------------
# report lines shared by both analyses
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """One ``CHECK`` report line: an exact comparison and its outcome."""

    name: str
    ok: bool
    lhs: str
    cmp: str
    rhs: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"CHECK {self.name} {status} {self.lhs} {self.cmp} {self.rhs}"
