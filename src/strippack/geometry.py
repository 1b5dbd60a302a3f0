"""Exact axis-aligned geometry.

Rectangles, piecewise constant step profiles (the slot strategy's skyline),
and the grid decomposition used to find bounded free components and trace
their boundaries.  Coordinates may be any exactly ordered numeric type:
the step checks and the grid run on the packing's lattice integers, and
hole regions leave the analysis as Fraction rectangles.

Conventions:
  * squares/rectangles are closed sets; "overlap" means interiors intersect;
  * step-profile queries use the open interior of the query interval, so
    boundary-only contact neither blocks a drop nor provides support.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

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
    """

    __slots__ = ("end", "starts", "values")

    def __init__(self, end):
        self.end = end
        self.starts = [0]
        self.values = [0]

    def scale_by(self, f) -> None:
        """Multiply every coordinate and value by ``f``."""
        self.end *= f
        self.starts = [s * f for s in self.starts]
        self.values = [v * f for v in self.values]

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
        a breakpoint.  So one pass over the segments finds the cell.  The
        pass meets the candidate cells from left to right, so a later one
        wins only when it is strictly lower."""
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


# ---------------------------------------------------------------------------
# grid decomposition of the strip below a ceiling
# ---------------------------------------------------------------------------

class ObstacleGrid:
    """Coordinate-compressed decomposition of [0, width] x [0, ceiling].

    Obstacles are ``(l, r, b, t)`` tuples of any exactly ordered type; hole
    analysis passes the packing's lattice integers.  Cell (i, j) spans
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]]; ``owner[i][j]`` is the index of the
    obstacle covering it, or None for free space.
    """

    def __init__(self, obstacles: Sequence[tuple], width, ceiling):
        xs = {0, width}
        ys = {0, ceiling}
        for l, r, b, t in obstacles:
            if t > ceiling:
                raise GeometryError("ceiling below an obstacle")
            xs.update((l, r))
            ys.update((b, t))
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        self.xi = {x: i for i, x in enumerate(self.xs)}
        self.yi = {y: j for j, y in enumerate(self.ys)}
        self.nx = len(self.xs) - 1
        self.ny = len(self.ys) - 1
        self.owner: list[list[Optional[int]]] = [
            [None] * self.ny for _ in range(self.nx)
        ]
        for idx, (l, r, b, t) in enumerate(obstacles):
            if l == r or b == t:
                continue
            for i in range(self.xi[l], self.xi[r]):
                col = self.owner[i]
                for j in range(self.yi[b], self.yi[t]):
                    if col[j] is not None:
                        raise GeometryError(
                            f"overlapping obstacles {col[j]} and {idx}")
                    col[j] = idx

    def free_components(self) -> list[dict]:
        """4-connected components of free cells.

        Returns dicts with keys ``cells`` (set of (i, j)) and ``bounded``
        (does not touch the ceiling row).
        """
        seen = [[False] * self.ny for _ in range(self.nx)]
        comps = []
        for i0 in range(self.nx):
            for j0 in range(self.ny):
                if seen[i0][j0] or self.owner[i0][j0] is not None:
                    continue
                stack = [(i0, j0)]
                seen[i0][j0] = True
                cells = set()
                bounded = True
                while stack:
                    i, j = stack.pop()
                    cells.add((i, j))
                    if j == self.ny - 1:
                        bounded = False
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ni, nj = i + di, j + dj
                        if 0 <= ni < self.nx and 0 <= nj < self.ny \
                                and not seen[ni][nj] \
                                and self.owner[ni][nj] is None:
                            seen[ni][nj] = True
                            stack.append((ni, nj))
                comps.append({"cells": cells, "bounded": bounded})
        comps.sort(key=lambda c: min(c["cells"]))
        return comps


def trace_boundary(cells: set[tuple[int, int]]) -> list[tuple[tuple, tuple]]:
    """Directed boundary cycle of a connected cell set, interior on the left
    (counterclockwise).  Vertices are grid indices (i, j).  Raises if the
    cell set has an interior island.
    """
    return walk_boundary(boundary_edges(cells))


def boundary_edges(cells: set[tuple[int, int]]) -> list[tuple[tuple, tuple]]:
    """Unit edges between a cell of the set and a cell outside it, directed
    with the set on the left."""
    edges = []
    add = edges.append
    for (i, j) in cells:
        if (i, j - 1) not in cells:
            add(((i, j), (i + 1, j)))          # bottom edge, eastward
        if (i + 1, j) not in cells:
            add(((i + 1, j), (i + 1, j + 1)))  # right edge, northward
        if (i, j + 1) not in cells:
            add(((i + 1, j + 1), (i, j + 1)))  # top edge, westward
        if (i - 1, j) not in cells:
            add(((i, j + 1), (i, j)))          # left edge, southward
    return edges


# left turn of each unit step direction
_LEFT_OF = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}


def walk_boundary(edges) -> list[tuple[tuple, tuple]]:
    """Join the directed unit boundary edges of a cell set into one cycle,
    starting at the smallest vertex; the cycle holds the given edge tuples.

    The cycle depends only on the set of edges, not on their order.  The
    smallest vertex is a corner of a single cell, so it has one outgoing
    edge.  At a pinch vertex, where two cells of the set meet only at a
    corner, the walk turns left and so stays on the boundary of the cell it
    follows.  Raises if the edges form more than one cycle, as they do for
    a set with an interior island or with parts joined only at a corner.
    """
    out: dict[tuple, list[tuple]] = {}
    for edge in edges:
        out.setdefault(edge[0], []).append(edge)
    start = min(out)
    cycle = []
    prev = cur = start
    while True:
        outs = out[cur]
        if len(outs) == 1:
            edge = outs.pop()
            del out[cur]
        else:
            turn = _LEFT_OF[(cur[0] - prev[0], cur[1] - prev[1])]
            want = (cur[0] + turn[0], cur[1] + turn[1])
            edge = next((e for e in outs if e[1] == want), None)
            if edge is None:
                raise GeometryError(f"no left turn at pinch vertex {cur}")
            outs.remove(edge)
        cycle.append(edge)
        prev, cur = cur, edge[1]
        if cur == start and start not in out:
            break
    if len(cycle) != len(edges):
        raise GeometryError("region boundary is not a single cycle")
    return cycle
