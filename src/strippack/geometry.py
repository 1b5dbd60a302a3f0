"""Exact axis-aligned geometry.

Rectangles, piecewise constant step profiles (the slot strategy's skyline),
and the free components of the strip below a ceiling: one sweep in x cuts
the free space into gap rects and joins them, and one walk over a
component's rects keeps the corners of its boundary.  Coordinates may be
any exactly ordered numeric type: the step checks and the sweep run on the
packing's lattice integers, and hole regions leave the analysis as Fraction
rectangles.

Conventions:
  * squares/rectangles are closed sets; "overlap" means interiors intersect;
  * step-profile queries use the open interior of the query interval, so
    boundary-only contact neither blocks a drop nor provides support.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Sequence

from .numbers import Scalar


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """Axis-aligned closed rectangle ``(left, right, bottom, top)``, in the
    order of the lattice tuples; degenerate sides allowed."""

    left: Scalar
    right: Scalar
    bottom: Scalar
    top: Scalar

    def __post_init__(self):
        if self.left > self.right or self.bottom > self.top:
            raise GeometryError(f"rect with a negative side: {self}")

    @property
    def width(self) -> Scalar:
        return self.right - self.left

    @property
    def height(self) -> Scalar:
        return self.top - self.bottom

    def interior_overlaps(self, other: "Rect") -> bool:
        return (self.left < other.right and other.left < self.right
                and self.bottom < other.top and other.bottom < self.top)


# ---------------------------------------------------------------------------
# step profile (packing skyline)
# ---------------------------------------------------------------------------

class StepProfile:
    """Piecewise-constant function over [0, end), zero at first and
    changed in place.

    ``starts[i]`` is the left end of segment i (``starts[0] == 0``); segment
    i carries ``values[i]`` up to ``starts[i+1]`` (or ``end`` for the last
    one), and neighbouring segments carry different values.  Coordinates
    may be any exactly ordered type; the slot strategy keeps its skyline in
    the packing's lattice integers, with ``end`` the lattice scale.

    ``lowest_cell`` keeps the candidate cells of ``_w``, the last width it
    was asked about: ``_js`` their indices in order and ``_tops`` their
    heights, or None until a second query at that width.  ``raised`` grows
    ``[_lo, _hi]``, the range that the kept candidates have not seen.
    """

    __slots__ = ("end", "starts", "values", "_w", "_js", "_tops", "_lo", "_hi")

    def __init__(self, end):
        self.end = end
        self.starts = [0]
        self.values = [0]
        self._w = self._js = self._tops = None
        self._lo, self._hi = end, 0

    def scale_by(self, f) -> None:
        """Multiply every coordinate and value by ``f``."""
        self.end *= f
        self.starts = [s * f for s in self.starts]
        self.values = [v * f for v in self.values]
        self._w = self._js = self._tops = None

    def max_over(self, lo, hi):
        """Max of the profile over the OPEN interior (lo, hi)."""
        if not lo < hi:
            raise GeometryError("max_over needs a positive-length interval")
        starts = self.starts
        return max(self.values[bisect_right(starts, lo) - 1:
                               bisect_left(starts, hi)])

    def raised(self, lo, hi, value) -> None:
        """Raise [lo, hi] to max(old, value), splicing only the segments
        the interval touches and merging equal neighbours."""
        if not lo < hi:
            return
        if lo < self._lo:
            self._lo = lo
        if hi > self._hi:
            self._hi = hi
        starts, values = self.starts, self.values
        i = bisect_right(starts, lo) - 1
        j = bisect_left(starts, hi)
        new_s, new_v = [], []
        prev = values[i - 1] if i else None
        if starts[i] < lo:
            new_s.append(starts[i])
            new_v.append(values[i])
            prev = values[i]
        for m in range(i, j):
            v = values[m] if values[m] > value else value
            if v != prev:
                new_s.append(starts[m] if starts[m] > lo else lo)
                new_v.append(v)
                prev = v
        if j < len(starts) and starts[j] == hi:
            if values[j] == prev:
                j += 1                  # the next segment continues the last
        elif hi < self.end and values[j - 1] != prev:
            new_s.append(hi)            # the last segment continues past hi
            new_v.append(values[j - 1])
        starts[i:j] = new_s
        values[i:j] = new_v

    def lowest_cell(self, w) -> int:
        """Index j of the leftmost of the lowest cells [j*w, (j+1)*w] tiling
        [0, end), a cell's height being the max over its open interior.

        A cell inside one segment takes that segment's value, and only the
        leftmost such cell of a segment can win; every other cell straddles
        a breakpoint.  A query at a new width finds the lowest of these
        candidates in one pass over the segments, meeting them from left to
        right, so a later one wins only when it is strictly lower.  The
        next query at the same width keeps the candidates, and later ones
        rescan only the cells that the raises since then may have changed:
        a cell's height and candidacy read only the breakpoints in
        ((j-1)w, (j+1)w), so a raise of [lo, hi] reaches the cells from
        lo // w to the first one right of hi."""
        if w == self._w:
            n = self.end // w
            if self._js is None:
                self._js, self._tops = self._candidates(w, 0, n)
            elif self._lo <= self._hi:
                j0, j1 = self._lo // w, min(-(-self._hi // w) + 1, n)
                a, b = bisect_left(self._js, j0), bisect_left(self._js, j1)
                self._js[a:b], self._tops[a:b] = self._candidates(w, j0, j1)
            self._lo, self._hi = self.end, 0
            tops = self._tops
            return self._js[tops.index(min(tops))]
        self._w, self._js = w, None
        starts, values, end = self.starts, self.values, self.end
        n = len(starts)
        best = low = None               # the lowest cell so far, its height
        cell = top = None               # cell straddling a breakpoint, its max
        for i in range(n):
            v = values[i]
            e = starts[i + 1] if i + 1 < n else end
            if cell is not None:
                if v > top:
                    top = v
                if (cell + 1) * w > e:
                    continue            # the cell covers this whole segment
                if best is None or top < low:
                    best, low = cell, top
                cell = None
            j = -(-starts[i] // w)
            if (j + 1) * w <= e and (best is None or v < low):
                best, low = j, v
            if e % w:
                cell, top = e // w, v
        return best

    def _candidates(self, w, j0, j1) -> tuple[list, list]:
        """The candidate cells j0 <= j < j1, left to right, and their
        heights, from only the segments that meet those cells."""
        starts, values, end = self.starts, self.values, self.end
        n, stop = len(starts), j1 * w
        js, tops = [], []
        cell = top = None
        i = bisect_right(starts, j0 * w) - 1
        while i < n and starts[i] < stop:
            s, v = starts[i], values[i]
            i += 1
            e = starts[i] if i < n else end
            if cell is not None:
                if v > top:
                    top = v
                if (cell + 1) * w > e:
                    continue
                js.append(cell)
                tops.append(top)
                cell = None
            j = -(-s // w)
            if (j + 1) * w <= e and j0 <= j < j1:
                js.append(j)
                tops.append(v)
            if e % w:
                cell, top = e // w, v       # past j1 only if the loop ends
        return js, tops


# ---------------------------------------------------------------------------
# free components of the strip below a ceiling
# ---------------------------------------------------------------------------

class AnalysisError(AssertionError):
    """A proven structural property failed: implementation bug or bad input."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"{name}: {detail}" if detail else name)


# owners of a boundary piece that lies on no obstacle
GROUND, LEFT_WALL, RIGHT_WALL = -1, -2, -3


class _Gap:
    """A free gap ``(lo, hi)`` from ``x0`` on, the rect ``[x0, x] x [lo,
    hi]`` once it closes at x.  ``pieces`` are its boundary segments ``(p,
    q, owner)`` with the gap on their left; ``under`` and ``over`` are
    ``(since, owner)`` of its bottom and its top."""

    __slots__ = ("x0", "lo", "hi", "under", "over", "pieces")

    def __init__(self, x0, lo, hi, below, above):
        self.x0, self.lo, self.hi = x0, lo, hi
        self.under, self.over, self.pieces = (x0, below), (x0, above), []

    def owners(self, x, below, above):
        """From x on, ``below`` lies under the gap and ``above`` over it: end
        the bottom and top pieces whose owner changes (both at a close)."""
        (xb, ob), (xa, oa) = self.under, self.over
        if ob != below:
            self.pieces.append(((xb, self.lo), (x, self.lo), ob))
            self.under = (x, below)
        if oa != above:
            self.pieces.append(((x, self.hi), (xa, self.hi), oa))
            self.over = (x, above)


def _cover(solid: list, lo, hi):
    """The parts ``(y0, y1, owner)`` of (lo, hi) that the sorted disjoint
    extents ``solid`` cover, bottom up."""
    for b, t, k in solid[max(bisect_left(solid, (lo,)) - 1, 0):]:
        if b >= hi:
            return
        if t > lo:
            yield max(b, lo), min(t, hi), k


class ObstacleGrid:
    """The free part of [0, width] x [0, ceiling] outside interior-disjoint
    obstacles ``(l, r, b, t)`` of positive size, as gap rects from one
    sweep in x.  Obstacles that overlap or reach above the ceiling, and a
    gap that meets the ceiling, raise AnalysisError, which names obstacles
    by their place in ``obstacles`` and the x where the sweep found it.

    The sweep keeps the column's extents ``(b, t, owner)`` and free gaps
    ``(lo, hi)``, both sorted; the walls are the extents outside the strip.
    Where extents end or start, it rebuilds the gaps in a window around
    them, grown until no gap crosses its ends.  A gap equal on both sides
    of x continues; the others close as rects, and each new gap is joined
    with every closed one that shares a positive length of the line x.
    ``rects`` holds the gaps in the order of their lower-left corners, and
    ``joins`` the joined pairs.  ``nx`` and ``ny`` count the cells of the
    coordinate-compressed strip, which is never built.
    """

    def __init__(self, obstacles: Sequence[tuple], width, ceiling):
        starts: dict = {width: [(0, ceiling, RIGHT_WALL)]}
        ends: dict = {0: [(0, ceiling, LEFT_WALL)]}
        ys = {0, ceiling}
        for k, (l, r, b, t) in enumerate(obstacles):
            if t > ceiling:
                raise AnalysisError("ceiling", f"obstacle {k} reaches above it")
            starts.setdefault(l, []).append((b, t, k))
            ends.setdefault(r, []).append((b, t, k))
            ys.update((b, t))
        xs = sorted(starts.keys() | ends.keys())
        self.nx, self.ny = len(xs) - 1, len(ys) - 1
        self.rects, self.joins = [], []
        act, gaps = [(0, ceiling, LEFT_WALL)], []    # the column's, bottom up
        for x in xs:
            gone, born = sorted(ends.get(x, ())), sorted(starts.get(x, ()))
            for e in gone:
                del act[bisect_left(act, e)]
            for e in born:
                hit = next(_cover(act, e[0], e[1]), None)
                if hit is not None:
                    raise AnalysisError("overlap", f"obstacles {hit[2]} and "
                                        f"{e[2]} overlap at x = {x}")
                insort(act, e)
            changed = sorted(gone + born)
            i = 0
            while i < len(changed):
                y0, y1, _ = changed[i]
                while i < len(changed) and changed[i][0] <= y1:
                    y1 = max(y1, changed[i][1])
                    i += 1
                    g0 = bisect_left(gaps, y0, key=lambda g: g.hi)
                    g1 = bisect_right(gaps, y1, key=lambda g: g.lo)
                    if g0 < g1:
                        y0, y1 = min(y0, gaps[g0].lo), max(y1, gaps[g1 - 1].hi)
                gaps[g0:g1] = self._rebuild(x, gaps[g0:g1], act, y0, y1,
                                            gone, born)

    def __repr__(self):
        return f"ObstacleGrid({self.nx} x {self.ny} cells, {len(self.rects)} gaps)"

    def _rebuild(self, x, old: list, act: list, y0, y1, gone: list,
                 born: list) -> list[_Gap]:
        """The gaps after x of the window [y0, y1], from the ground or an
        extent's top to an extent's bottom, outside the extents ``act``.
        A gap equal to one of ``old`` continues; the others open against
        the extents ``gone`` at x, the old ones left close against those
        ``born``, and a closed and an opened one sharing a positive length
        of the line x are joined."""
        keep = {(g.lo, g.hi): g for g in old}
        col, opened = [], []
        lo, j = y0, bisect_left(act, (y0,))
        below = act[j - 1][2] if j and act[j - 1][1] == y0 else GROUND
        while j < len(act) and act[j][0] <= y1:
            hi, top, above = act[j]
            if hi > lo:
                g = keep.pop((lo, hi), None)
                if g is not None:
                    g.owners(x, below, above)
                else:
                    g = _Gap(x, lo, hi, below, above)
                    g.pieces += [((x, b), (x, a), o)
                                 for a, b, o in _cover(gone, lo, hi)]
                    self.rects.append(g)
                    opened.append(g)
                col.append(g)
            lo, below, j = top, above, j + 1
        if lo < y1:
            raise AnalysisError("unbounded", f"a gap meets the ceiling at x = {x}")
        for g in keep.values():
            g.pieces += [((x, a), (x, b), o)
                         for a, b, o in _cover(born, g.lo, g.hi)]
            g.owners(x, None, None)
            self.joins += [(g, h) for h in opened
                           if max(g.lo, h.lo) < min(g.hi, h.hi)]
        return col

    def free_components(self) -> list[list[_Gap]]:
        """The components of the free space, by union-find over the joins:
        each its rects in order, the first holding the lowest cell of its
        leftmost column, and in the order of that cell."""
        parent = {g: g for g in self.rects}

        def root(g):
            while parent[g] is not g:     # halving the path
                parent[g] = g = parent[parent[g]]
            return g

        for g, h in self.joins:
            parent[root(g)] = root(h)
        comps: dict[_Gap, list[_Gap]] = {}
        for g in self.rects:
            comps.setdefault(root(g), []).append(g)
        return list(comps.values())


def trace_boundary(component: Sequence[_Gap]) -> list[tuple[int, list]]:
    """The counterclockwise boundary of a free component as runs ``(owner,
    points)``: maximal stretches of one owner (an obstacle's index, the
    ground or a wall), each kept as its ends and the corners between.

    The walk starts east from the lower-left corner of the component's
    first rect.  At a pinch vertex, where the component meets itself at a
    point, it turns left, so that vertex is a corner twice.  Raises
    AnalysisError if the pieces form more than one cycle."""
    out: dict = {}
    for g in component:
        for p, q, owner in g.pieces:
            out.setdefault(p, []).append((q, owner))
    start = prev = cur = (component[0].x0, component[0].lo)
    runs, points, last = [], None, None
    while True:
        outs = out.get(cur, [])
        dx, dy = cur[0] - prev[0], cur[1] - prev[1]
        # one way on, or at a pinch the left turn (positive cross product)
        ways = [k for k, (q, _) in enumerate(outs) if len(outs) == 1
                or dx * (q[1] - cur[1]) > dy * (q[0] - cur[0])]
        if not ways:
            break
        q, owner = outs.pop(ways[0])
        if owner != last:
            points, last = [cur, q], owner
            runs.append((owner, points))
        elif points[-2][0] == cur[0] == q[0] or points[-2][1] == cur[1] == q[1]:
            points[-1] = q              # straight on: cur is no corner
        else:
            points.append(q)
        prev, cur = cur, q
        if cur == start:
            break
    if cur != start or any(out.values()):
        raise AnalysisError("boundary", f"the free component at {start} is "
                            "not bounded by one cycle")
    return runs
