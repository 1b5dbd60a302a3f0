"""Hole analysis for BottomLeft packings.

After closing the packing with a side-1 square, every free component below
the top is a bounded hole.  Each hole's boundary is traversed
counterclockwise and grouped into per-square runs; the hole is classified by
how its last boundary square attaches to the previous one; left-leaning
diagonals are removed by splitting holes and covering each cut with a
virtual copy of the square above it; the resulting diagonal-free holes are
bounded by the squared lengths of at most four boundary segments, and those
terms are charged to square sides.  A square never accumulates more than
5/2 in total charge.

Geometry runs on the closed packing's own lattice (``Packing.lattice``):
every square is an integer ``(l, r, b, t)``, and corners, areas, side
lengths, cuts, virtual lids, diagonal crossings and charge segments are
lattice integers, as is twice each hole's bound.  They become Fractions
only where they leave the module (``Hole.area``, ``Hole.region``, the
bound ``hole_area_bound`` returns, the values the analysis checks print);
the checks are decided on the integers, the ledger counted in halves.

Raw holes come straight from those rects' sides: the parts that no
opposite side covers are the pieces of the free space's boundary (Lemma 1:
each square adds one connected piece of a hole's boundary), one walk joins
them into a counterclockwise cycle per hole, and each cycle keeps only its
corners, in runs of the square, wall or ground outside.  From then on a
hole is just those runs of corners, and the squares near a point come from
the packing's bottom-sorted index (``Packing.window``).  A hole's area
comes from the shoelace formula, a boundary point's side from the
boundary's turn there, and the right diagonal is checked against the
hole's slabs (maximal x-strips of constant cross-section).  A split cuts a
hole along a horizontal line from M to N into the star below it (under a
virtual lid) and the remainder: the star is the boundary from M to N
closed by the lid's copy, the remainder the boundary from N through the
lid to M closed by a seam, less any part of the cut that a real square
roofs.  A split walks only the small remainder; the star is a slice of the
parent's runs and inherits its facts.  Runs never change once built, so
pieces share them; a run's side is measured where a charge reads it.

Structural facts used here are theorems for BottomLeft packings, so they
are asserted and raise AnalysisError loudly when violated: that means an
implementation bug (or a non-BottomLeft input).  A fact that an earlier
check or the construction itself implies is not checked again.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geometry import (GROUND, LEFT_WALL, RIGHT_WALL, AnalysisError,
                       ObstacleGrid, Rect, trace_boundary)
from .numbers import HALF, ONE, ZERO
from .packing import Check, Packing, Placement, close_packing

SIDE_LEFT = "left"
SIDE_BOTTOM = "bottom"
SIDE_RIGHT = "right"
SIDE_TOP = "top"

TYPE_I = "I"
TYPE_II = "II"

KIND_INTERIOR = "interior"
KIND_LEFT_WALL = "left-wall"
KIND_RIGHT_WALL = "right-wall"


@dataclass(frozen=True)
class VirtualLid:
    """Imaginary copy of a square covering the unsupported cut MN, on the
    lattice: ``rect`` is ``(l, r, b, t)`` and MN runs from ``mn_left`` to
    the copy's right side ``r`` along its bottom ``b``."""

    owner: Placement
    rect: tuple[int, int, int, int]
    mn_left: int


OWNER_GROUND = ("ground",)
OWNER_LWALL = ("lwall",)
OWNER_RWALL = ("rwall",)
OWNER_SEAM = ("seam",)


class _Context:
    """Shared lattice for all holes of one closed packing.

    ``scale`` and ``rects`` are the packing's lattice: the strip is
    ``[0, scale]`` wide and ``rects[k]`` is square k's ``(l, r, b, t)``.
    ``window`` is the packing's bottom-sorted index of those rects
    (``Packing.window``); splits read the squares near a point or a cut's
    line from it.  ``copies`` holds the index of each square that has a
    virtual lid.
    """

    def __init__(self, p: Packing):
        self.placements = p.placements
        self.scale, self.rects = p.lattice()
        self.window = p.window
        self.copies: set[int] = set()


@dataclass
class _Run:
    owner: tuple
    points: list                       # corners (x, y) on the lattice

    def rect(self, ctx: _Context) -> Optional[tuple[int, int, int, int]]:
        """The owner's ``(l, r, b, t)`` on the lattice, or None for a
        ground, wall or seam run."""
        if self.owner[0] == "sq":
            return ctx.rects[self.owner[1]]
        if self.owner[0] == "copy":
            return self.owner[1].rect
        return None


def _edges(runs: list[_Run]):
    """The boundary's segments ``((x1, y1), (x2, y2))`` in order."""
    for run in runs:
        yield from zip(run.points, run.points[1:])


def _shoelace(runs: list[_Run]) -> int:
    """Area enclosed by a counterclockwise boundary, on the lattice."""
    return sum((x1 - x2) * y for (x1, y), (x2, _) in _edges(runs))


def _heading(p: tuple[int, int], q: tuple[int, int]) -> int:
    """0, 1, 2 or 3 as the edge from p to q heads east, north, west, south."""
    return 2 * (q[0] < p[0]) if p[1] == q[1] else 1 + 2 * (q[1] < p[1])


class Hole:
    """One hole: its counterclockwise boundary as runs of corners.

    ``runs`` cuts the boundary (interior on the left) into maximal runs
    with one owner, the lid's first.  A run's ``points`` are its corners on
    the lattice, from the point where the run before it ends to the point
    where the run after it starts.  ``area_units`` is the area on the
    lattice; ``corners`` counts the visits to each corner (the points of
    each run but its first), two at a pinch.  A star (``_carve``) passes
    its ``corners`` and its runs copy first: Lemma 1 held for its parent,
    and a wall run, next to the parent's lid, is the star's second or last.
    In every hole ``runs[1]`` and ``runs[-1]`` are square runs unless they
    are walls: a cycle of one owner would ring an island, a copy is only a lid,
    and the ground and seams head east, so they meet no end of a lid, which
    heads west along the hole's top or turns onto a vertical side.
    """

    def __init__(self, ctx: _Context, runs: list[_Run], area_units: int,
                 lid_virtual: Optional[VirtualLid] = None, corners=None):
        self.ctx = ctx
        self.lid_virtual = lid_virtual
        star = corners is not None
        if star:        # Lemma 1 holds as for the parent (see above)
            seen = [r.owner for r in runs[1:2] + runs[-1:]]
        else:
            # Lemma 1: each square contributes one connected boundary curve
            seen = set()
            for r in runs:
                if r.owner[0] in ("sq", "copy", "lwall", "rwall"):
                    if r.owner in seen:
                        raise AnalysisError(
                            "lemma1", f"owner {r.owner} contributes twice")
                    seen.add(r.owner)
        self.corners = corners if star else Counter(
            p for r in runs for p in r.points[1:])
        self.touches_left = OWNER_LWALL in seen
        self.touches_right = OWNER_RWALL in seen
        if self.touches_left and self.touches_right:
            raise AnalysisError("two-walls", "hole touches both strip walls")
        lid_idx = 0 if star else self._lid_index(runs)     # a star's: the copy
        self.runs = runs[lid_idx:] + runs[:lid_idx] if lid_idx else runs
        self.area_units = area_units
        if self.lid_virtual is not None and self.runs[0].owner[0] != "copy":
            raise AnalysisError("lid", "virtual-lid hole traversed a real lid")

    # -- construction -------------------------------------------------------

    def _lid_index(self, runs) -> int:
        if self.touches_left:
            # lid run precedes the (southward) wall run counterclockwise
            w = next(i for i, r in enumerate(runs) if r.owner == OWNER_LWALL)
            return (w - 1) % len(runs)
        if self.touches_right:
            # lid run follows the (northward) wall run
            w = next(i for i, r in enumerate(runs) if r.owner == OWNER_RWALL)
            return (w + 1) % len(runs)
        # the highest westward edge (interior below), leftmost among those
        best = best_y = best_x = None
        for idx, r in enumerate(runs):
            for (x1, y1), (x2, y2) in zip(r.points, r.points[1:]):
                if y1 == y2 and x2 < x1 and (
                        best is None or y1 > best_y
                        or (y1 == best_y and x2 < best_x)):
                    best, best_y, best_x = idx, y1, x2
        return best

    # -- structure accessors ------------------------------------------------

    @property
    def area(self) -> Fraction:
        return Fraction(self.area_units, self.ctx.scale ** 2)

    @property
    def kind(self) -> str:
        if self.touches_left:
            return KIND_LEFT_WALL
        if self.touches_right:
            return KIND_RIGHT_WALL
        return KIND_INTERIOR

    def slabs(self) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """The hole as maximal x-strips of constant cross-section, left to
        right: ``(x0, x1, spans)`` on the lattice, where ``spans`` are the
        ``(y0, y1)`` that the hole fills over the open strip, bottom up."""
        starts: dict[int, list[int]] = {}
        ends: dict[int, list[int]] = {}
        for (x1, y1), (x2, _) in _edges(self.runs):
            if x1 != x2:
                starts.setdefault(min(x1, x2), []).append(y1)
                ends.setdefault(max(x1, x2), []).append(y1)
        out: list = []
        active: list[int] = []          # heights of the edges over a strip
        xs = sorted(starts.keys() | ends.keys())
        for x0, x1 in zip(xs, xs[1:]):
            for y in ends.get(x0, ()):
                active.remove(y)
            for y in starts.get(x0, ()):
                insort(active, y)
            spans = list(zip(active[::2], active[1::2]))
            if out and out[-1][2] == spans:
                out[-1] = (out[-1][0], x1, spans)
            else:
                out.append((x0, x1, spans))
        return out

    def region(self) -> tuple[Rect, ...]:
        """The hole in strip coordinates (Fractions): its slabs as
        interior-disjoint rects."""
        s = self.ctx.scale
        return tuple(Rect(Fraction(x0, s), Fraction(x1, s),
                          Fraction(y0, s), Fraction(y1, s))
                     for x0, x1, spans in self.slabs() for y0, y1 in spans)

    def contains(self, x: int, y: int, turn=None) -> bool:
        """Whether the hole holds the lattice unit square southeast of the
        point (x, y).  With ``turn``, the boundary's headings (``_heading``)
        into and out of the point, the hole near it lies counterclockwise
        from the heading out to the heading back, and the square, 7/8 of a
        turn from east, lies wholly in or out of that.  At a pinch (passed
        twice) or without ``turn``, count the crossings of the ray east from
        the square's centre, which meets no corner."""
        if turn is not None and self.corners[(x, y)] < 2:
            into, out = turn
            return (7 - 2 * out) % 8 < 2 * ((into + 2 - out) % 4)
        inside = False
        for (x1, y1), (_, y2) in _edges(self.runs):
            if x1 > x and (y1 < y) != (y2 < y):
                inside = not inside
        return inside

    def classify(self) -> str:
        """An interior hole's type: I if the last boundary square is a right
        neighbor of the previous one, II if it rests on the previous one's
        top.  A pseudo-floor (ground or carve seam) before the last square
        acts as a top that is never charged, matching the Type I shape: a
        run with no rect there is one of those, as the hole meets no wall.

        A corner contact, the previous top-right corner on the last square's
        bottom-left, is Type I too: the boundary runs east along the
        previous top and turns north up the last left side there, as Type I
        does.  Type I's terms read neither square, and its bound needs the
        right diagonal from that corner, ``runs[-1].points[0]`` in both
        shapes, to miss the hole.  It heads southwest through the previous
        square, left of the corner, and the shapes differ only right of it,
        where Type I's last square reaches lower; so Type I's argument holds
        (``_assert_right_diagonal`` checks every hole).  Type II's terms do
        not fit: the last square's bottom bounds no hole."""
        prev_rect = self.runs[-2].rect(self.ctx)
        if prev_rect is None:
            return TYPE_I
        pl, pr, pb, pt = prev_rect
        l, r, b, t = self.runs[-1].rect(self.ctx)
        if pr == l and (pt == b or min(pt, t) > max(pb, b)):
            return TYPE_I
        if pt == b and min(pr, r) > max(pl, l):
            return TYPE_II
        raise AnalysisError("lemma3", "last square neither right nor top neighbor")


# ---------------------------------------------------------------------------
# diagonals and hole splitting
# ---------------------------------------------------------------------------

def _diagonal_origin(hole: Hole) -> tuple[int, int]:
    """Start of the left diagonal, on the lattice: the point where the
    boundary leaves the second square, or that square's lower-right
    corner."""
    a2 = hole.runs[1]
    _, r, b, _ = a2.rect(hole.ctx)
    x, y = a2.points[-1]
    return (r, y if x == r else b)


def _ray_hit(hole: Hole, origin) -> Optional[tuple]:
    """First counterclockwise boundary point, from the run after the lid,
    where the slope -1 ray from ``origin`` passes INTO the hole's interior
    (out of solid material), on the lattice, with the rect of the square it
    leaves and the position of the run whose edge leaves the point.

    The ray's own start qualifies when the hole lies immediately southeast
    of it (then the split degenerates to a cut through the start level).
    Points where the ray leaves the hole, grazes a corner, or dives into a
    seam or floor are not crossings in this sense.  A point where an edge
    ends is tried with the edge that leaves it.
    """
    ox, oy = origin
    c = ox + oy
    runs = hole.runs
    back = runs[0].points[-2]
    for k in range(1 - len(runs), 1):       # from the run after the lid
        pts = runs[k].points
        for p, q in zip(pts, pts[1:]):
            (x1, y1), (x2, y2) = p, q
            if x1 == x2:
                x, y = x1, c - x1
                on = y1 <= y <= y2 or y2 <= y <= y1
            else:
                x, y = c - y1, y1
                on = x1 <= x <= x2 or x2 <= x <= x1
            if on and x >= ox and (x, y) != q:
                out = _heading(p, q)
                turn = (_heading(back, p) if (x, y) == p else out, out)
                rect = _enters_hole_southeast(hole, x, y, turn)
                if rect is not None:
                    return (x, y), rect, k % len(runs)
            back = p
    return None


def _enters_hole_southeast(hole: Hole, x: int, y: int,
                           turn=None) -> Optional[tuple]:
    """If the hole lies immediately southeast of the lattice point (x, y)
    (``Hole.contains`` with ``turn``) and a square immediately northwest,
    that square's rect; otherwise None.  The square has ``l < x <= r`` and
    ``b <= y < t``, and interiors are disjoint, so there is at most one."""
    ctx = hole.ctx
    rect = next((q for q in ctx.window(y - ctx.scale, y + 1)
                 if q[0] < x <= q[1] and y < q[3]), None)
    return rect if rect is not None and hole.contains(x, y, turn) else None


def _find_split(hole: Hole) -> Optional[VirtualLid]:
    """The virtual lid over the cut below the hole's first left-diagonal
    crossing, or None if no diagonal crosses the hole."""
    hit = _ray_hit(hole, _diagonal_origin(hole))
    if hit is None:
        return None
    ctx, runs = hole.ctx, hole.runs
    (_, y), rect, k = hit
    if runs[k].rect(ctx) != rect:   # its side ends at the point
        k -= 1
    if runs[k].rect(ctx) != rect:
        raise AnalysisError("split", "crossing square "
                            f"{ctx.placements[ctx.rects.index(rect)].item.index}"
                            " has no run at the crossing")
    sq_idx = runs[k].owner[1]
    # a boundary point (a cut's too) lies in no square's open interior, so
    # the point is on the square's bottom or, if above it, on its right
    if y == rect[2]:            # on its bottom: it overhangs the next run
        up = sq_idx
        low_run = runs[(k + 1) % len(runs)]
        if low_run.owner[0] != "sq":
            raise AnalysisError("lemma5", "no square below the overhang")
        low = low_run.owner[1]
    else:                       # on its right: it carries the run before
        low = sq_idx
        up_run = runs[k - 1]
        if up_run.owner[0] != "sq":
            raise AnalysisError("lemma5", "no square above the split point")
        up = up_run.owner[1]
    ul, ur, ub, _ = ctx.rects[up]
    ll, lr, _, lt = ctx.rects[low]
    # Lemma: the upper square rests on the lower one
    if not (ub == lt and ul < lr and ll < ur):
        raise AnalysisError(
            "lemma5", "split pair not stacked: "
            f"up={ctx.placements[up].item.index} "
            f"low={ctx.placements[low].item.index}")
    # The cut starts at M = (lr, lt).  As up's run and low's are adjacent,
    # the boundary leaves M down low's right side, so the lattice cell
    # southeast of M is free: no square spanning the cut's line from below
    # holds M up (Lemma 6), and the cells right of M stay free up to the
    # first such square, which ends the cut, or else to the right wall
    # (Corollary 1).
    x_m = lr
    x_n = min((l for l, _, _, t in ctx.window(lt - ctx.scale, lt)
               if t >= lt and l > x_m), default=ctx.scale)
    side = ur - ul
    if not (x_n - x_m) < side:
        raise AnalysisError("lemma7", f"cut {x_n - x_m} not shorter than {side}")
    return VirtualLid(owner=ctx.placements[up],
                      rect=(x_n - side, x_n, lt, lt + side),
                      mn_left=x_m)


def _carve(hole: Hole, lid: VirtualLid) -> tuple[Hole, Optional[Hole]]:
    """Remove the sub-hole below the cut; returns (below, remainder).

    The cut runs from M = (mn_left, b) to N = (r, b) on the lid's bottom, and
    each lies on the hole's boundary once.  The star below the cut is the
    boundary from M to N closed by the lid's copy from N back to M; the
    remainder is the boundary from N through the lid to M, closed by a seam
    from M to N.  The cells just below the cut are free (``_find_split``),
    so the cut runs inside the hole and the star holds them.  There is no
    remainder when its area is zero, its boundary from N to M then being a
    square's bottom on the cut.  Only the remainder is walked: M forward
    from the lid, N back to it, and its corners for its area; the star is a
    slice of the parent's runs with the rest of the area, and takes over
    the parent's corner counts.
    """
    ctx = hole.ctx
    key = lid.owner.item.index
    if key in ctx.copies:
        raise AnalysisError("copy-uniqueness",
                            f"square {key} used as a virtual lid twice")
    _, r, b, _ = lid.rect
    m, n = (lid.mn_left, b), (r, b)
    runs = hole.runs
    at_m = _locate(hole, m, range(len(runs)))
    at_n = _locate(hole, n, range(len(runs) - 1, -1, -1))
    if at_m[0] == 0 or at_n <= at_m:
        raise AnalysisError("lid", "the star holds the parent's lid")
    (i, s, _), (j, t, _) = at_m, at_n
    path = runs[i:j + 1]
    before_m, path[0] = _split(runs[i], s, m)
    path[-1:], from_n = _split(path[-1], t - s if i == j else t, n)
    rest = [from_n] + runs[j + 1:] + runs[:i] + before_m
    rest_area = _shoelace(rest) + (m[0] - n[0]) * b
    kept = i + max(len(path) - 1, 1)    # the star keeps runs[i + 1:kept]
    hole.corners.subtract(p for run in runs[:i + 1] + runs[kept:]
                          for p in run.points[1:])
    path.insert(0, _closed(path, ("copy", lid), n, m))
    hole.corners.update(p for run in path[:2] + path[2:][-1:]
                        for p in run.points[1:])
    star = Hole(ctx, path, hole.area_units - rest_area, lid, hole.corners)
    remainder = None
    if rest_area:
        rest.append(_closed(rest, OWNER_SEAM, m, n))
        remainder = Hole(ctx, rest, rest_area, hole.lid_virtual)
    ctx.copies.add(key)
    return star, remainder


def _locate(hole: Hole, p: tuple[int, int], order: range) -> tuple:
    """The run (searched in ``order``) and segment that hold the point p on
    the hole's boundary, and p's distance along the segment, which holds
    its points but its last.  p must lie on one segment, at no pinch."""
    x, y = p
    for k in order:
        pts = hole.runs[k].points
        for s, ((x1, y1), (x2, y2)) in enumerate(zip(pts, pts[1:])):
            if (x2, y2) != p and (min(x1, x2) <= x <= max(x1, x2)
                                  and min(y1, y2) <= y <= max(y1, y2)):
                times = hole.corners[p] + ((x1, y1) != p)
                if times != 1:
                    raise AnalysisError(
                        "split", f"cut end {p} on the boundary {times} times")
                return k, s, abs(x - x1) + abs(y - y1)
    raise AnalysisError("split", f"cut end {p} on the boundary 0 times")


def _split(run: _Run, s: int, p: tuple[int, int]) -> tuple[list, _Run]:
    """The run up to the point p on its segment s, in a list that is empty
    where p is its first corner, and the run from p."""
    pts = run.points
    head = pts[:s + 1] if pts[s] == p else pts[:s + 1] + [p]
    return ([_Run(run.owner, head)] if len(head) > 1 else [],
            _Run(run.owner, [p] + pts[s + 1:]))


def _closed(path: list[_Run], owner: tuple, a: tuple[int, int],
            b: tuple[int, int]) -> _Run:
    """The run of ``owner`` along the cut from a to b that closes the
    boundary ``path`` from b to a, trimming the path in place.

    Where the path's last edge into a, or its first edge out of b, runs
    back along the cut, a real square's bottom roofs that end of the cut
    and the overlap cancels.  Such a square rests on the support at that
    end and its side rises beside the cut, so a trim never empties a run.
    The closing run meets no run of its own owner: a copy is new to the
    hole, and the cuts at one level span gaps between the supported spans
    there, so their seams never meet.
    """
    cut = [a, b]
    for k, near, end in ((-1, -2, 0), (0, 1, 1)):
        points = path[k].points
        q, e, o = points[near], cut[end], cut[1 - end]
        if q[1] == e[1] and (q[0] - e[0]) * (o[0] - e[0]) > 0:
            path[k] = _Run(path[k].owner, points[:-1] if k else points[1:])
            cut[end] = q
    return _Run(owner, cut)


def split_hole(hole: Hole) -> list[Hole]:
    """Fully process one hole: repeatedly carve away the part below each
    diagonal crossing (each carved part is processed as its own hole with a
    virtual lid, and its pieces come before the remainder's) until no
    crossing remains.  Every carve puts a copy of a different square over
    its cut (``_carve`` asserts it), so the carves end."""
    out = []
    pending = [hole]
    while pending:
        current = pending.pop()
        lid = None if current.touches_left else _find_split(current)
        if lid is None:
            out.append(current)
            continue
        star, remainder = _carve(current, lid)
        if remainder is not None:
            pending.append(remainder)
        pending.append(star)                    # popped first
    return out


# ---------------------------------------------------------------------------
# area bounds, wall charges, ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeTerm:
    square_index: int          # 1-based arrival index (n+1 = closing square)
    side: str
    virtual: bool              # charged to the square's virtual copy
    coeff: Fraction            # ledger coefficient (virtual lid bottom: 1/2)
    segment: int               # the charged length, on the lattice


def _side_length(ctx: _Context, run: _Run, side: str) -> int:
    """The lattice length of one side of a square or copy run's owner
    along the run.  A copy owns only its cut, which lies on its bottom."""
    l, r, b, t = run.rect(ctx)
    copy = run.owner[0] == "copy"
    if copy:
        l = r = t = None
    length = 0
    for (x1, y1), (x2, y2) in zip(run.points, run.points[1:]):
        if x1 == x2:
            on = SIDE_LEFT if x1 == l else SIDE_RIGHT if x1 == r else None
        else:
            on = SIDE_BOTTOM if y1 == b else SIDE_TOP if y1 == t else None
        if on is None:
            owner = run.owner[1].owner if copy else ctx.placements[run.owner[1]]
            raise AnalysisError("boundary", "edge off the sides of "
                                f"{'the copy of ' * copy}square {owner.item.index}")
        if on == side:
            length += abs(x2 - x1) + abs(y2 - y1)
    return length


def _charge_items(hole: Hole) -> list[ChargeTerm]:
    """Charged boundary terms of one diagonal-free hole, by hole kind."""
    ctx = hole.ctx
    lid = hole.runs[0]
    lid_virtual, key = lid.owner[0] == "copy", lid.owner[1]
    lid_square = key.owner if lid_virtual else ctx.placements[key]
    beta1 = _side_length(ctx, lid, SIDE_BOTTOM)
    items = [ChargeTerm(lid_square.item.index, SIDE_BOTTOM, lid_virtual,
                        HALF if lid_virtual else ONE, beta1)]

    def term(run: _Run, side: str, coeff: Fraction):
        seg = _side_length(ctx, run, side)
        sq = ctx.placements[run.owner[1]]
        items.append(ChargeTerm(sq.item.index, side, False, coeff, seg))

    if hole.touches_left:
        term(hole.runs[-1], SIDE_LEFT, HALF)
        return items
    term(hole.runs[1], SIDE_RIGHT, HALF)
    if hole.touches_right:
        return items
    if hole.classify() == TYPE_II:
        term(hole.runs[-1], SIDE_BOTTOM, ONE)
        term(hole.runs[-2], SIDE_LEFT, HALF)
    return items


def _twice_bound(terms: list[ChargeTerm]) -> int:
    """Twice a hole's bound on the lattice: each squared segment times its
    coefficient, 1/2 or 1, a virtual lid's bottom counting in full."""
    return sum(t.segment ** 2 * (2 if t.virtual or t.coeff == ONE else 1)
               for t in terms)


def hole_area_bound(hole: Hole, terms: list[ChargeTerm]) -> Fraction:
    """Bound the hole area by its charge terms (``_twice_bound``) and
    assert it."""
    twice = _twice_bound(terms)
    bound = Fraction(twice, 2 * hole.ctx.scale ** 2)
    if 2 * hole.area_units > twice:
        raise AnalysisError(
            "area-bound", f"hole area {hole.area} exceeds bound {bound}")
    _assert_right_diagonal(hole)
    return bound


def _assert_right_diagonal(hole: Hole):
    """The slope +1 diagonal from the last transition never cuts the hole."""
    if hole.touches_right:
        return                      # cut off by the wall; no right diagonal
    last = hole.runs[-1]
    if not (hole.touches_left or hole.classify() == TYPE_I):
        last = hole.runs[-2]
    qx, qy = last.points[0]
    d = qx - qy
    for x0, x1, spans in hole.slabs():
        for y0, y1 in spans:
            if max(x0, d + y0) < min(x1, d + y1, qx):
                raise AnalysisError("lemma4", "right diagonal cuts the hole")


class ChargeLedger:
    """Per-square, per-side maximum charge coefficients of the terms, and
    each square's sum of them (``totals``).  Every coefficient is positive,
    so the squares with a charge term are exactly the keys of ``totals``."""

    def __init__(self, terms: Iterable[ChargeTerm]):
        self.max_coeff: dict[tuple[int, str, bool], Fraction] = {}
        for t in terms:
            key = (t.square_index, t.side, t.virtual)
            self.max_coeff[key] = max(self.max_coeff.get(key, ZERO), t.coeff)
        self.totals: dict[int, Fraction] = {}
        for (idx, _, _), coeff in self.max_coeff.items():
            self.totals[idx] = self.totals.get(idx, ZERO) + coeff


def compute_charges(terms: Sequence[list[ChargeTerm]]) -> ChargeLedger:
    """The ledger of the final holes' charge terms, one list per hole.  A
    square charged over 5/2 fails the analysis's ``max-charge`` check."""
    return ChargeLedger(t for hole_terms in terms for t in hole_terms)


# ---------------------------------------------------------------------------
# top-level driver
# ---------------------------------------------------------------------------

def extract_holes(p_closed: Packing) -> list[Hole]:
    """The raw holes of a closed packing, each its boundary as runs of
    corners, in the order of their lower-left corners."""
    ctx = _Context(p_closed)
    rects = ctx.rects
    grid = ObstacleGrid(rects, ctx.scale, max((t for *_, t in rects), default=0))
    walls = {GROUND: OWNER_GROUND, LEFT_WALL: OWNER_LWALL,
             RIGHT_WALL: OWNER_RWALL}
    holes = []
    for comp in grid.free_components():
        runs = [_Run(walls[k] if k < 0 else ("sq", k), points)
                for k, points in trace_boundary(comp)]
        holes.append(Hole(ctx, runs, _shoelace(runs)))
    return holes


@dataclass
class BottomLeftAnalysis:
    closed: Packing
    holes: list
    bounds: list                # hole_area_bound of each of ``holes``
    ledger: ChargeLedger
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def report(self) -> str:
        lines = []
        for i, (h, bound) in enumerate(zip(self.holes, self.bounds), 1):
            kind = h.kind
            typ = "-" if kind != KIND_INTERIOR else h.classify()
            lid = "virtual" if h.lid_virtual is not None else "real"
            lines.append(f"hole {i}: kind={kind} type={typ} lid={lid} "
                         f"area={h.area} bound={bound}")
        for idx, total in sorted(self.ledger.totals.items()):
            lines.append(f"square {idx}: charge={total}")
        lines.extend(c.line() for c in self.checks)
        return "\n".join(lines)


def run_bottomleft_analysis(p: Packing) -> BottomLeftAnalysis:
    """Close the packing, extract and split all holes, build the ledger, and
    evaluate every exact accounting identity and bound."""
    closed = close_packing(p)
    raw = extract_holes(closed)
    finals = [piece for h in raw for piece in split_hole(h)]
    terms = [_charge_items(h) for h in finals]
    bounds = [hole_area_bound(h, t) for h, t in zip(finals, terms)]
    ledger = compute_charges(terms)

    # decided at scale^2, the unit square's lattice area; a coefficient is
    # 1/2 or 1, so the ledger is counted in halves (any other, exactly)
    scale, rects = closed.lattice()
    unit, halves = scale * scale, Counter()
    for (idx, _, _), coeff in ledger.max_coeff.items():
        halves[idx] += 1 if coeff == HALF else 2 if coeff == ONE else 2 * coeff
    areas = [(r - l) ** 2 for l, r, _, _ in rects]
    twice_ledger = sum(halves[pl.item.index] * a
                       for pl, a in zip(closed.placements, areas))
    area = sum(areas) - unit            # less the closing square's
    level = rects[-1][2] * scale        # the height, where that square rests
    hole_units = sum(h.area_units for h in raw)
    final_units = sum(h.area_units for h in finals)
    twice_terms = sum(_twice_bound(t) for t in terms)
    area_sum, hole_sum = Fraction(area, unit), Fraction(hole_units, unit)
    max_halves = max(halves.values(), default=0)
    checks = [
        Check("height-identity", level == area + hole_units,
              str(p.height), "==", f"{area_sum} + {hole_sum}"),
        Check("split-conservation", final_units == hole_units,
              str(Fraction(final_units, unit)), "==", str(hole_sum)),
        Check("aggregate-bound", 2 * hole_units <= 5 * (area + unit),
              str(hole_sum), "<=", f"5/2 * {Fraction(area + unit, unit)}"),
        Check("terms-soundness", 2 * hole_units <= twice_terms,
              str(hole_sum), "<=", str(Fraction(twice_terms, 2 * unit))),
        Check("ledger-soundness", 2 * hole_units <= twice_ledger,
              str(hole_sum), "<=", str(Fraction(twice_ledger, 2 * unit))),
        Check("max-charge", max_halves <= 5,
              str(Fraction(max_halves, 2)), "<=", "5/2"),
        Check("theorem1", 2 * level <= 7 * area + 5 * unit,
              str(p.height), "<=", f"7/2 * {area_sum} + 5/2")]
    return BottomLeftAnalysis(closed, finals, bounds, ledger, checks)
