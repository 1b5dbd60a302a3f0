"""Packing model and the independent validity verifier.

A packing is an ordered sequence of axis-aligned square placements in the
semi-infinite strip [0,1] x [0,inf).  The verifier replays the arrival
order and checks, per step (``check_step``):

  * overlap-freeness (closed squares, interiors disjoint, inside the strip),
  * gravity: the square rests on the strip bottom or on another square's top
    with positive-length contact (corner contact is not support),
  * a monotone-descent collision-free path from above the packing exists
    (the square may move left/right/down; sliding along touching boundaries
    is legal, so configuration obstacles are open rectangles).

Reachability is computed by a downward plane sweep over configuration-space
obstacle events.  Each packing keeps its squares on one integer lattice, the
coordinates times the LCM of their denominators, indexed by bottom; the step
checks, the sweep and the BottomLeft search run on it.  The rescaling is
exact, so no semantics change, and because sides are at most 1 a check
reads only the squares whose bottoms lie between 1 below the arriving
square's bottom and its top.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .geometry import (Rect, StepProfile, intersect_spans, spans_contain,
                       spans_meet, subtract_spans_open)
from .numbers import ONE, ZERO, Scalar


class PackingError(ValueError):
    pass


@dataclass(frozen=True)
class SquareItem:
    """An arriving square: 1-based arrival index and exact side length."""

    index: int
    side: Scalar

    def __post_init__(self):
        if not (ZERO < self.side <= ONE):
            raise PackingError(f"side {self.side} outside (0, 1]")


@dataclass(frozen=True)
class Placement:
    item: SquareItem
    x: Scalar
    y: Scalar

    @property
    def side(self) -> Scalar:
        return self.item.side

    @property
    def left(self) -> Scalar:
        return self.x

    @property
    def right(self) -> Scalar:
        return self.x + self.item.side

    @property
    def bottom(self) -> Scalar:
        return self.y

    @property
    def top(self) -> Scalar:
        return self.y + self.item.side

    def in_strip(self) -> bool:
        return ZERO <= self.x and self.right <= ONE and self.y >= ZERO


class _Lattice:
    """The integer coordinates of a chain of packings.

    ``rects[i]`` is placement i's ``(l, r, b, t)`` times ``scale``, the LCM
    of every denominator fitted so far.  ``bottoms`` holds every ``b`` in
    ascending order and ``order`` the placement index of each.  The
    snapshots of one chain share a lattice and each reads the first entries,
    as many as it has placements; only the newest appends.  Rescaling
    multiplies every entry in place, which changes the representation and
    not the geometry, so it keeps every sharing snapshot valid.
    """

    __slots__ = ("scale", "pls", "rects", "bottoms", "order")

    def __init__(self):
        self.scale = 1
        self.pls: list[Placement] = []
        self.rects: list[tuple[int, int, int, int]] = []
        self.bottoms: list[int] = []
        self.order: list[int] = []

    def fit(self, *dens: int) -> int:
        """Rescale, if needed, so that ``scale`` is a multiple of every
        denominator given; returns the scale."""
        scale = self.scale
        for d in dens:
            if scale % d:
                scale = lcm(scale, d)
        if scale != self.scale:
            f = scale // self.scale
            self.rects = [(l * f, r * f, b * f, t * f)
                          for l, r, b, t in self.rects]
            self.bottoms = [b * f for b in self.bottoms]
            self.scale = scale
        return scale

    def coords(self, pl: Placement) -> tuple[int, int, int, int]:
        """``pl``'s ``(l, r, b, t)`` on the lattice, fitted to it first."""
        x, y, a = pl.x, pl.y, pl.item.side
        scale = self.fit(x.denominator, y.denominator, a.denominator)
        l = x.numerator * (scale // x.denominator)
        b = y.numerator * (scale // y.denominator)
        s = a.numerator * (scale // a.denominator)
        return l, l + s, b, b + s

    def append(self, pl: Placement) -> None:
        rect = self.coords(pl)
        k = bisect_right(self.bottoms, rect[2])
        self.bottoms.insert(k, rect[2])
        self.order.insert(k, len(self.pls))
        self.pls.append(pl)
        self.rects.append(rect)

    @classmethod
    def of(cls, pls: Sequence[Placement]) -> "_Lattice":
        lat = cls()
        for pl in pls:
            lat.append(pl)
        return lat


class Packing:
    """Immutable ordered packing with its height and, each built on first
    use, its integer lattice (``lattice``) and its top profile.

    ``extended`` appends to the lattice this packing shares with the one it
    came from, in O(1) amortized time plus a sorted insert; extending a
    packing that has been extended before rebuilds its part of the lattice
    first, each time, so both results stay valid.
    """

    __slots__ = ("_lat", "_n", "_height", "_profile", "_placements")

    def __init__(self, placements: Sequence[Placement] = ()):
        self._placements: Optional[tuple[Placement, ...]] = tuple(placements)
        self._n = len(self._placements)
        self._height = max((pl.top for pl in self._placements), default=ZERO)
        self._profile: Optional[StepProfile] = None
        self._lat: Optional[_Lattice] = None

    @classmethod
    def empty(cls) -> "Packing":
        return cls()

    def __len__(self) -> int:
        return self._n

    @property
    def placements(self) -> tuple[Placement, ...]:
        if self._placements is None:
            self._placements = tuple(self._lat.pls[:self._n])
        return self._placements

    @property
    def height(self) -> Scalar:
        return self._height

    @property
    def profile(self) -> StepProfile:
        if self._profile is None:
            prof = StepProfile.constant(ZERO)
            for pl in self.placements:
                prof = prof.raised(pl.left, pl.right, pl.top)
            self._profile = prof
        return self._profile

    def _lattice(self) -> _Lattice:
        if self._lat is None:
            self._lat = _Lattice.of(self._placements)
        return self._lat

    def extended(self, pl: Placement) -> "Packing":
        lat = self._lattice()
        if len(lat.pls) != self._n:
            lat = _Lattice.of(lat.pls[:self._n])    # a second branch
        lat.append(pl)
        nxt = Packing.__new__(Packing)
        nxt._lat, nxt._n = lat, self._n + 1
        nxt._placements = nxt._profile = None
        nxt._height = max(self._height, pl.top)
        return nxt

    def lattice(self, *dens: int) -> tuple[int, Sequence[tuple[int, int, int, int]]]:
        """``(scale, rects)``: ``rects[i]`` is placement i's ``(l, r, b, t)``
        times ``scale``, and ``scale`` is a multiple of every denominator
        given.  The rects are read-only."""
        lat = self._lattice()
        scale = lat.fit(*dens)
        rects = lat.rects
        return scale, rects if len(rects) == self._n else rects[:self._n]

    def _window(self, lo: int, hi: Optional[int] = None
                ) -> list[tuple[int, int, int, int]]:
        """Lattice rects of the placements with ``lo <= b < hi``, on the
        lattice's current scale.  The rects are read-only."""
        lat, n = self._lattice(), self._n
        bottoms, rects = lat.bottoms, lat.rects
        k0 = bisect_left(bottoms, lo)
        if k0 == 0 and hi is None and len(rects) == n:
            return rects                # every placement: the live list
        k1 = len(bottoms) if hi is None else bisect_left(bottoms, hi)
        return [rects[i] for i in lat.order[k0:k1] if i < n]


def pack(strategy, seq: Sequence[SquareItem]) -> Packing:
    """Place ``seq`` online with a fresh ``strategy()``.

    A strategy is a class whose instances place one square at a time:
    ``place(item) -> Placement`` on their own ``.packing``.
    """
    state = strategy()
    for item in seq:
        state.place(item)
    return state.packing


def close_packing(p: Packing) -> Packing:
    """Append the side-1 closing square; it can only rest at the packing
    height with its left side on the wall."""
    closing = SquareItem(len(p) + 1, ONE)
    return p.extended(Placement(closing, ZERO, p.height))


def rest_height(p: Packing, x: Scalar, a: Scalar) -> Scalar:
    """Landing height of a vertical drop: the smallest y such that the square
    [x, x+a] x [y, y+a] clears every placed square whose x-extent overlaps
    the open footprint (x, x+a)."""
    if not (ZERO <= x <= ONE - a):
        raise PackingError(f"x={x} out of range for side {a}")
    if not p.placements:
        return ZERO
    return p.profile.max_over(x, x + a)


def is_supported(p: Packing, pl: Placement) -> bool:
    """Gravity check: on the strip bottom, or on some square's top with
    positive-length x-overlap.

    A top at ``pl.y`` belongs to a square with bottom in ``[pl.y - 1,
    pl.y)``, since sides are at most 1, so only that window is read."""
    if pl.y == ZERO:
        return True
    lat = p._lattice()
    l, r, b, _ = lat.coords(pl)
    return any(qt == b and ql < r and l < qr
               for ql, qr, _, qt in p._window(b - lat.scale, b))


# ---------------------------------------------------------------------------
# reachability sweep
# ---------------------------------------------------------------------------

class ReachabilitySweep:
    """Finite description of all monotone-descent reachable left-edge
    positions of a square of fixed side.

    Levels and spans are integers on the packing's lattice: the value v
    stands for v / ``scale``.  Each event level keeps the spans reachable
    exactly at it and those of the open slab below it, down to the next
    event; below the last event nothing changes.
    """

    __slots__ = ("scale", "start", "full", "_events", "_at", "_slabs")

    def __init__(self, scale, start, full, events, at, slabs):
        self.scale = scale
        self.start = start              # at/above: everything reachable
        self.full = full                # spans of [0, 1-a]
        self._events = events           # descending event levels
        self._at = at                   # level -> spans exactly at level
        self._slabs = slabs             # parallel: spans in open slab below

    def spans_at(self, y):
        """Reachable left-edge spans at lattice level y (closed spans, on
        the lattice)."""
        ev = self._events
        if y >= self.start or not ev or y > ev[0]:
            return self.full
        # first index with ev[i] <= y in the descending event list
        lo, hi = 0, len(ev)
        while lo < hi:
            mid = (lo + hi) // 2
            if ev[mid] > y:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(ev):
            return self._slabs[-1]      # strictly below every event
        if ev[lo] == y:
            return self._at[lo]
        return self._slabs[lo - 1]      # open slab below the event above y

    def at_level(self, y: Scalar) -> list[tuple[Scalar, Scalar]]:
        """Reachable left-edge x spans at height exactly y (closed spans)."""
        scale = self.scale
        return [(Fraction(lo, scale), Fraction(hi, scale))
                for lo, hi in self.spans_at(y * scale)]


def reachable_positions(p: Packing, a: Scalar,
                        floor: Scalar = ZERO) -> ReachabilitySweep:
    """Downward plane sweep over the open configuration obstacles
    (l_j - a, r_j) x (b_j - a, t_j), clipped to x in [0, 1-a].

    The sweep describes the levels at or above ``floor`` only: it leaves out
    every square whose top t_j is at or below the floor, and every event
    below the floor.  ``at_level(y)`` for every y >= floor is what a sweep
    over every square and every event gives:

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
      * ``at_level(y)`` reads only events at or above y, and for a y
        between events the slab below the last event above it, so events
        below the floor are never read.

    Only squares with t_j > floor are swept, and t_j <= b_j + 1, so the
    candidates come from the bottom-sorted window b_j > floor - 1.
    """
    if a > ONE or a <= ZERO:
        raise PackingError(f"side {a} outside (0, 1]")
    scale = p._lattice().fit(a.denominator, floor.denominator)
    low = floor.numerator * (scale // floor.denominator)
    rects = p._window(low - scale + 1)
    sa = a.numerator * (scale // a.denominator)
    full = [(0, scale - sa)]
    h = p.height
    start = h.numerator * (scale // h.denominator)

    # integer obstacle records: (shadow_lo, shadow_hi, act_lo, act_hi)
    obs = [(l - sa, r, b - sa, t) for l, r, b, t in rects]
    events: dict[int, tuple[list, list]] = {}
    for idx, (_, _, alo, ahi) in enumerate(obs):
        if ahi > low:
            events.setdefault(ahi, ([], []))[0].append(idx)   # activates below
            if alo >= low:
                events.setdefault(alo, ([], []))[1].append(idx)  # deactivates

    active: list[tuple[int, int, int]] = []   # (shadow_lo, shadow_hi, idx)
    ev_out, at_out, slab_out = [], [], []
    r_prev = full
    for lv in sorted(events, reverse=True):
        entering, leaving = events[lv]
        leave_ids = set(leaving)
        at_active = [o for o in active if o[2] not in leave_ids] if leave_ids else active
        f_at = subtract_spans_open(full, [(o[0], o[1]) for o in at_active])
        r_at = [s for s in f_at if spans_meet([s], r_prev)]
        for idx in entering:
            insort(active, (obs[idx][0], obs[idx][1], idx))
        if leave_ids:
            active = [o for o in active if o[2] not in leave_ids]
        f_below = subtract_spans_open(full, [(o[0], o[1]) for o in active])
        entry = intersect_spans(r_at, f_below)
        r_below = [s for s in f_below if spans_meet([s], entry)]
        ev_out.append(lv)
        at_out.append(r_at)
        slab_out.append(r_below)
        r_prev = r_below
        if not r_below:
            break               # sealed: nothing below is reachable
    return ReachabilitySweep(scale, start, full, ev_out, at_out, slab_out)


def is_tetris_reachable(p: Packing, pl: Placement) -> bool:
    """Is (pl.x, pl.y) reachable from above the packing by a path that never
    moves up and keeps the square's interior clear of all placed squares?"""
    l, _, b, _ = p._lattice().coords(pl)
    sweep = reachable_positions(p, pl.item.side, floor=pl.y)
    return spans_contain(sweep.spans_at(b), l)


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------

VIOLATION_OVERLAP = "overlap"
VIOLATION_UNSUPPORTED = "unsupported"
VIOLATION_UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class StepVerdict:
    overlap_free: bool
    supported: bool
    reachable: bool

    @property
    def ok(self) -> bool:
        return self.overlap_free and self.supported and self.reachable

    @property
    def violation(self) -> Optional[str]:
        if not self.overlap_free:
            return VIOLATION_OVERLAP
        if not self.supported:
            return VIOLATION_UNSUPPORTED
        if not self.reachable:
            return VIOLATION_UNREACHABLE
        return None


@dataclass(frozen=True)
class VerificationReport:
    verdicts: tuple[StepVerdict, ...]
    first_failure: Optional[tuple[int, str]]   # (1-based step, violation)

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def describe(self) -> str:
        if self.ok:
            return "valid"
        step, kind = self.first_failure
        return f"{kind} at step {step}"


def check_step(sofar: Packing, pl: Placement) -> StepVerdict:
    """Check one arriving square against the packing before it: overlap,
    then support, then reach; a square that overlaps is not reachable.

    Only squares with bottom in ``[pl.y - 1, pl.top)`` can overlap it, as
    sides are at most 1, so only that window is tested."""
    lat = sofar._lattice()
    l, r, b, t = lat.coords(pl)
    rect = Rect.of(l, b, r, t)
    overlap_free = pl.in_strip() and not any(
        rect.interior_overlaps(Rect.of(ql, qb, qr, qt))
        for ql, qr, qb, qt in sofar._window(b - lat.scale, t))
    supported = is_supported(sofar, pl)
    reachable = is_tetris_reachable(sofar, pl) if overlap_free else False
    return StepVerdict(overlap_free, supported, reachable)


def verify_packing(seq: Sequence[SquareItem],
                   pls: Sequence[Placement]) -> VerificationReport:
    """Replay arrivals in order, checking all three constraints per step.

    The replay stops at the first failing step, so ``verdicts`` holds the
    steps replayed: every step of a valid packing, or the steps up to and
    including the first failure.
    """
    if len(seq) != len(pls):
        raise PackingError("sequence and placement lists differ in length")
    for item, pl in zip(seq, pls):
        if item.index != pl.item.index or item.side != pl.item.side:
            raise PackingError(f"item mismatch at index {item.index}")
    sofar = Packing.empty()
    verdicts = []
    for step, pl in enumerate(pls, start=1):
        v = check_step(sofar, pl)
        verdicts.append(v)
        if not v.ok:
            return VerificationReport(tuple(verdicts), (step, v.violation))
        sofar = sofar.extended(pl)
    return VerificationReport(tuple(verdicts), None)


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
