"""Exact axis-aligned geometry.

Rectangles, piecewise constant step profiles (the slot strategy's skyline),
and the free components of the strip below a ceiling: the parts of the
obstacles' sides, the walls and the ground that no opposite side covers
are the pieces of their boundaries, one walk joins the pieces into cycles,
and each cycle keeps its corners.  Coordinates may be any exactly ordered
numeric type: the step checks and the boundary pieces run on the packing's
lattice integers.

Conventions:
  * squares/rectangles are closed sets; "overlap" means interiors intersect;
  * step-profile queries use the open interior of the query interval, so
    boundary-only contact neither blocks a drop nor provides support.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .numbers import Scalar


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """Axis-aligned closed rectangle ``(left, right, bottom, top)``, in the
    order of the lattice tuples, as the step checker's overlap test reads
    them; degenerate sides allowed.  Callers build it with
    ``left <= right`` and ``bottom <= top``."""

    left: Scalar
    right: Scalar
    bottom: Scalar
    top: Scalar

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
    may be any exactly ordered type; a packing's lattice keeps the skyline
    of its tops in its integers, with ``end`` its scale, and rescales it.

    ``lowest_cell`` keeps the candidate cells of ``_w``, the last width it
    was asked about, which one scan (``_candidates``) lists at every width:
    ``_js`` their indices in order and ``_tops`` their heights.  ``raised``
    grows ``[_lo, _hi]``, the range that the kept candidates have not seen.
    A cell keeps its index under scaling, so ``scale_by`` keeps them too.
    """

    __slots__ = ("end", "starts", "values", "_w", "_js", "_tops", "_lo", "_hi")

    def __init__(self, end):
        self.end = end
        self.starts = [0]
        self.values = [0]
        self._w, self._js, self._tops = 0, [], []
        self._lo, self._hi = end, 0

    def scale_by(self, f) -> None:
        """Multiply every coordinate and value by ``f``."""
        self.end *= f
        self.starts = [s * f for s in self.starts]
        self.values = [v * f for v in self.values]
        self._w, self._tops = self._w * f, [t * f for t in self._tops]
        self._lo, self._hi = self._lo * f, self._hi * f

    def max_over(self, lo, hi):
        """Max of the profile over the OPEN interior (lo, hi), for
        ``lo < hi``."""
        starts = self.starts
        return max(self.values[bisect_right(starts, lo) - 1:
                               bisect_left(starts, hi)])

    def raised(self, lo, hi, value) -> None:
        """Raise [lo, hi], lo < hi, to max(old, value), splicing only the
        segments the interval touches and merging equal neighbours."""
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
        a breakpoint.  One scan lists these candidates at every width: a
        query at a new width lists all of them in one pass over the segments
        and keeps them, and a later query at the same width rescans only the
        cells that the raises since then may have changed: a cell's height
        and candidacy read only the breakpoints in ((j-1)w, (j+1)w), so a
        raise of [lo, hi] reaches the cells from lo // w to the first one
        right of hi.  The candidates are kept left to right, so the first of
        the lowest is the leftmost."""
        n = self.end // w
        if w != self._w:
            self._w = w
            self._js, self._tops = self._candidates(w, 0, n)
        elif self._lo <= self._hi:
            j0, j1 = self._lo // w, min(-(-self._hi // w) + 1, n)
            a, b = bisect_left(self._js, j0), bisect_left(self._js, j1)
            self._js[a:b], self._tops[a:b] = self._candidates(w, j0, j1)
        self._lo, self._hi = self.end, 0
        tops = self._tops
        return self._js[tops.index(min(tops))]

    def _candidates(self, w, j0, j1) -> tuple[list, list]:
        """The candidate cells j0 <= j < j1, left to right, and their
        heights, from only the segments that meet those cells."""
        starts, values, end = self.starts, self.values, self.end
        n, stop = len(starts), j1 * w
        js, tops = [], []
        cell = top = None               # cell straddling a breakpoint, its max
        i = bisect_right(starts, j0 * w) - 1
        while i < n and starts[i] < stop:
            s, v = starts[i], values[i]
            i += 1
            e = starts[i] if i < n else end
            if cell is not None:
                if v > top:
                    top = v
                if (cell + 1) * w > e:
                    continue            # the cell covers this whole segment
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


# owners of a boundary piece that lies on no obstacle; a seam closes the
# cut of a hole's split (``holes``)
GROUND, LEFT_WALL, RIGHT_WALL, SEAM = -1, -2, -3, -4


def _uncovered(sides: list, covers: list):
    """The parts ``(lo, hi, owner)`` of the sides ``(lo, hi, owner)`` on one
    line that none of the opposite sides ``covers`` on that line reaches."""
    if not covers:
        for side in sides:
            if side[0] < side[1]:
                yield side
        return
    covers = sorted(covers)
    for lo, hi, k in sides:
        j = max(bisect_left(covers, (lo,)) - 1, 0)
        while j < len(covers) and covers[j][0] < hi:
            c0, c1, _ = covers[j]
            if c0 > lo:
                yield lo, c0, k
            lo, j = max(lo, c1), j + 1
        if lo < hi:
            yield lo, hi, k


_BLOCK = 256


def _first_overlap(obstacles: Sequence[tuple]):
    """``(x, j, k)`` for the least x where an obstacle k starting there
    overlaps an obstacle j, the lowest one it overlaps; None if none do.
    Obstacles start in the order ``(l, b, t, k)``, and the active ones are
    disjoint, so only the two beside k's place among them can overlap it.

    The active ones ``(b, t, k)`` are kept bottom up in blocks of fewer than
    ``2 * _BLOCK``, each found by its first entry: a start or an end shifts
    one block, where a single sorted list would shift every active obstacle
    above it (in a tall packing, most of a column of them)."""
    blocks, firsts, ends = [], [], []   # ends: a heap of (r, b, t, k)
    for l, b, t, k, r in sorted((l, b, t, k, r)
                                for k, (l, r, b, t) in enumerate(obstacles)):
        while ends and ends[0][0] <= l:
            gone = heappop(ends)[1:]
            j = bisect_right(firsts, gone) - 1
            block = blocks[j]
            del block[bisect_left(block, gone)]
            if block:
                firsts[j] = block[0]
            else:
                del blocks[j], firsts[j]
        new = (b, t, k)
        if not blocks:
            blocks.append([new])
            firsts.append(new)
        else:
            j = max(bisect_right(firsts, new) - 1, 0)
            block = blocks[j]
            i = bisect_left(block, new)     # 0 only below every active one
            for q in (block[i - 1] if i else None,
                      block[i] if i < len(block)
                      else blocks[j + 1][0] if j + 1 < len(blocks) else None):
                if q is not None and q[0] < t and b < q[1]:
                    return l, q[2], k
            block.insert(i, new)
            firsts[j] = block[0]
            if len(block) == 2 * _BLOCK:
                blocks.insert(j + 1, block[_BLOCK:])
                firsts.insert(j + 1, block[_BLOCK])
                del block[_BLOCK:]
        heappush(ends, (r, b, t, k))
    return None


class ObstacleGrid:
    """The free part of [0, width] x [0, ceiling] outside interior-disjoint
    obstacles ``(l, r, b, t)`` of positive size in the strip, as the pieces
    ``(p, q, owner)`` of its boundary, each with the free space on its left.

    A side of an obstacle, a wall or the ground bounds free space wherever
    no opposite side lies on its line: the left wall is a right side at
    x = 0, the right wall a left side at x = width and the ground a top at
    y = 0, and tops at the ceiling bound nothing.  Obstacles above the
    ceiling, obstacles that overlap and free space that meets the ceiling
    raise AnalysisError, which names obstacles by their place in
    ``obstacles``; the last two name the least x where they occur, an
    overlap first.  ``nx`` and ``ny`` count the cells of the
    coordinate-compressed strip, which is never built.
    """

    def __init__(self, obstacles: Sequence[tuple], width, ceiling):
        xs: dict = {0: ([], [(0, ceiling, LEFT_WALL)]),     # x: (lefts, rights)
                    width: ([(0, ceiling, RIGHT_WALL)], [])}
        ys: dict = {0: ([], [(0, width, GROUND)])}          # y: (bottoms, tops)
        for k, (l, r, b, t) in enumerate(obstacles):
            if t > ceiling:
                raise AnalysisError("ceiling", f"obstacle {k} reaches above it")
            xs.setdefault(l, ([], []))[0].append((b, t, k))
            xs.setdefault(r, ([], []))[1].append((b, t, k))
            ys.setdefault(b, ([], []))[0].append((l, r, k))
            ys.setdefault(t, ([], []))[1].append((l, r, k))
        self.nx, self.ny = len(xs) - 1, len(ys.keys() | {ceiling}) - 1
        self.pieces = pieces = []
        for x, (lefts, rights) in xs.items():
            pieces += [((x, lo), (x, hi), k)                # northward
                       for lo, hi, k in _uncovered(lefts, rights)]
            pieces += [((x, hi), (x, lo), k)                # southward
                       for lo, hi, k in _uncovered(rights, lefts)]
        # the least x of a vertical piece that reaches the ceiling
        reach = min((p[0] for p, q, _ in pieces if ceiling in (p[1], q[1])),
                    default=None)
        for y, (bottoms, tops) in ys.items():
            pieces += [((hi, y), (lo, y), k)                # westward
                       for lo, hi, k in _uncovered(bottoms, tops)]
            if y < ceiling:
                pieces += [((lo, y), (hi, y), k)            # eastward
                           for lo, hi, k in _uncovered(tops, bottoms)]
        hit = _first_overlap(obstacles)
        if hit is not None and (reach is None or hit[0] <= reach):
            raise AnalysisError("overlap", f"obstacles {hit[1]} and {hit[2]} "
                                f"overlap at x = {hit[0]}")
        if reach is not None:
            raise AnalysisError("unbounded",
                                f"a gap meets the ceiling at x = {reach}")

    def free_components(self) -> list[list[tuple]]:
        """The boundary cycle of each free component, counterclockwise from
        its least point ``(x, y)``, in the order of that point.

        Each piece leads on to the one piece that leaves its end, or, at a
        pinch vertex where free space meets itself at a point, to the left
        turn, so that vertex is a corner twice.  A cycle that leaves its
        least point northward is clockwise: it rings obstacles floating
        inside a component, which is then bounded by more than one cycle,
        and raises AnalysisError."""
        out, pinches = {}, {}           # the piece from a point, or None
        for piece in self.pieces:       # and the two from a pinch vertex
            first = out.setdefault(piece[0], piece)
            if first is not piece:
                out[piece[0]], pinches[piece[0]] = None, (first, piece)
        cycles, seen = [], set()
        for piece in self.pieces:
            cycle = []
            while piece not in seen:
                seen.add(piece)
                cycle.append(piece)
                (x0, y0), (x, y), _ = piece
                # one way on, or at a pinch the left turn (positive cross product)
                piece = out[x, y] or next(
                    q for q in pinches[x, y]
                    if (x - x0) * (q[1][1] - y) > (y - y0) * (q[1][0] - x))
            if cycle:
                i = cycle.index(min(cycle))
                cycles.append(cycle[i:] + cycle[:i])
        cycles.sort()
        for (p, q, _), *_ in cycles:
            if p[0] == q[0]:
                raise AnalysisError("boundary", f"the free component around "
                                    f"{p} is not bounded by one cycle")
        return cycles


def trace_boundary(cycle: Sequence[tuple]) -> list[tuple[int, list]]:
    """A boundary cycle's pieces as runs ``(owner, points)``: maximal
    stretches of one owner (an obstacle's index, the ground or a wall),
    each kept as its ends and the corners between.  A piece is a whole
    uncovered part of a side, so two pieces of one owner in a row meet at
    a corner."""
    runs, last = [], None
    for p, q, owner in cycle:
        if owner != last:
            points, last = [p], owner
            runs.append((owner, points))
        points.append(q)
    return runs
