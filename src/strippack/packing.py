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
obstacle events.  Coordinates are rescaled to integers for the sweep; the
rescaling is exact, so no semantics change.
"""

from __future__ import annotations

from bisect import insort
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

    def rect(self) -> Rect:
        return Rect.of(self.left, self.bottom, self.right, self.top)

    def in_strip(self) -> bool:
        return ZERO <= self.x and self.right <= ONE and self.y >= ZERO


class Packing:
    """Immutable ordered packing with a cached top profile."""

    __slots__ = ("placements", "_profile")

    def __init__(self, placements: Sequence[Placement] = (),
                 _profile: Optional[StepProfile] = None):
        self.placements: tuple[Placement, ...] = tuple(placements)
        self._profile = _profile

    @classmethod
    def empty(cls) -> "Packing":
        return cls((), StepProfile.constant(ZERO))

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self):
        return iter(self.placements)

    def extended(self, pl: Placement) -> "Packing":
        prof = None
        if self._profile is not None:
            prof = self._profile.raised(pl.left, pl.right, pl.top)
        return Packing(self.placements + (pl,), prof)

    @property
    def profile(self) -> StepProfile:
        if self._profile is None:
            prof = StepProfile.constant(ZERO)
            for pl in self.placements:
                prof = prof.raised(pl.left, pl.right, pl.top)
            self._profile = prof
        return self._profile

    @property
    def height(self) -> Scalar:
        h = ZERO
        for pl in self.placements:
            if pl.top > h:
                h = pl.top
        return h

    def obstacles(self) -> list[Rect]:
        return [pl.rect() for pl in self.placements]


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
    closing = SquareItem(len(p.placements) + 1, ONE)
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
    positive-length x-overlap."""
    if pl.y == ZERO:
        return True
    for other in p.placements:
        if other.top == pl.y and other.left < pl.right and pl.left < other.right:
            return True
    return False


# ---------------------------------------------------------------------------
# reachability sweep
# ---------------------------------------------------------------------------

class ReachabilitySweep:
    """Finite description of all monotone-descent reachable left-edge
    positions of a square of fixed side.

    Each event level keeps the spans reachable exactly at it and those of
    the open slab below it, down to the next event.
    """

    __slots__ = ("side", "start_y", "full", "_events", "_at", "_slabs")

    def __init__(self, side, start_y, full, events, at, slabs):
        self.side = side
        self.start_y = start_y          # at/above: everything reachable
        self.full = full                # spans of [0, 1-a]
        self._events = events           # descending event levels
        self._at = at                   # level -> spans exactly at level
        self._slabs = slabs             # parallel: spans in open slab below

    def at_level(self, y: Scalar):
        """Reachable left-edge x spans at height exactly y (closed spans)."""
        ev = self._events
        if y >= self.start_y or not ev or y > ev[0]:
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


def reachable_positions(p: Packing, a: Scalar) -> ReachabilitySweep:
    """Downward plane sweep over the open configuration obstacles
    (l_j - a, r_j) x (b_j - a, t_j), clipped to x in [0, 1-a]."""
    if a > ONE or a <= ZERO:
        raise PackingError(f"side {a} outside (0, 1]")
    scale = lcm(a.denominator, *(d for pl in p.placements
                                 for d in (pl.x.denominator, pl.y.denominator,
                                           pl.item.side.denominator))) \
        if p.placements else a.denominator
    sa = int(a * scale)
    base_hi = scale - sa
    full = [(0, base_hi)]
    start_y = p.height

    # integer obstacle records: (shadow_lo, shadow_hi, act_lo, act_hi)
    obs = []
    for pl in p.placements:
        sl = int(pl.x * scale)
        sr = sl + int(pl.item.side * scale)
        sb = int(pl.y * scale)
        st = sb + int(pl.item.side * scale)
        obs.append((sl - sa, sr, sb - sa, st))

    events: dict[int, tuple[list, list]] = {}
    for idx, (_, _, alo, ahi) in enumerate(obs):
        if ahi > 0:
            events.setdefault(ahi, ([], []))[0].append(idx)   # activates below
            if alo > 0:
                events.setdefault(alo, ([], []))[1].append(idx)  # deactivates

    levels = sorted(events, reverse=True)
    active: list[tuple[int, int, int]] = []   # (shadow_lo, shadow_hi, idx)
    ev_out, at_out, slab_out = [], [], []
    r_prev = full
    dead = False
    for lv in levels:
        entering, leaving = events[lv]
        leave_ids = set(leaving)
        if dead:
            ev_out.append(lv)
            at_out.append([])
            slab_out.append([])
            continue
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
            dead = True

    inv = Fraction(1, scale)
    to_frac = lambda spans: [(lo * inv, hi * inv) for lo, hi in spans]
    return ReachabilitySweep(
        a,
        start_y,
        [(ZERO, ONE - a)] if a < ONE else [(ZERO, ZERO)],
        [lv * inv for lv in ev_out],
        [to_frac(s) for s in at_out],
        [to_frac(s) for s in slab_out],
    )


def is_tetris_reachable(p: Packing, pl: Placement) -> bool:
    """Is (pl.x, pl.y) reachable from above the packing by a path that never
    moves up and keeps the square's interior clear of all placed squares?"""
    sweep = reachable_positions(p, pl.item.side)
    return spans_contain(sweep.at_level(pl.y), pl.x)


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
    then support, then reach; a square that overlaps is not reachable."""
    rect = pl.rect()
    overlap_free = pl.in_strip() and not any(
        rect.interior_overlaps(q.rect()) for q in sofar)
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
