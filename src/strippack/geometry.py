"""Exact axis-aligned geometry.

Closed intervals and span lists on the strip's x-axis, piecewise
constant step profiles (the packing skyline), rectangles, rectilinear
regions, and the grid decomposition used to find bounded free components.

The low-level span helpers operate on plain ``(lo, hi)`` pairs and are
generic over any exactly ordered numeric type, so the reachability sweep can
run them on integer-rescaled coordinates.

Conventions:
  * squares/rectangles are closed sets; "overlap" means interiors intersect;
  * span lists are closed and may contain degenerate single points
    (a square sliding along a touching boundary occupies such a point);
  * step-profile queries use the open interior of the query interval, so
    boundary-only contact neither blocks a drop nor provides support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .numbers import ONE, ZERO, Scalar


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# span helpers (lists of (lo, hi) pairs, lo <= hi, any exact ordered type)
# ---------------------------------------------------------------------------

def merge_spans(spans):
    """Sort and merge overlapping or touching closed spans."""
    if not spans:
        return []
    spans = sorted(spans)
    out = [spans[0]]
    for lo, hi in spans[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            if hi > phi:
                out[-1] = (plo, hi)
        else:
            out.append((lo, hi))
    return out


def merge_open_spans(spans):
    """Merge strictly overlapping open spans; touching opens stay separate
    (the shared endpoint is not covered).  Degenerate opens are dropped."""
    spans = sorted(s for s in spans if s[0] < s[1])
    out = []
    for lo, hi in spans:
        if out and lo < out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def intersect_spans(a, b):
    """Intersection of two normalized closed span lists (degenerates kept)."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract_spans_open(a, opens):
    """(union a) minus (union of OPEN spans): endpoints survive, possibly as
    degenerate single-point spans."""
    opens = merge_open_spans(opens)
    out = []
    for alo, ahi in a:
        cur = alo
        for blo, bhi in opens:
            if bhi <= cur or blo > ahi:
                continue
            if blo >= cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur > ahi:
                break
        if cur <= ahi:
            out.append((cur, ahi))
    return out


def spans_meet(a, b) -> bool:
    """Do two normalized closed span lists share at least one point?"""
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][1] < b[j][0]:
            i += 1
        elif b[j][1] < a[i][0]:
            j += 1
        else:
            return True
    return False


def spans_contain(spans, x) -> bool:
    for lo, hi in spans:
        if lo <= x <= hi:
            return True
        if lo > x:
            return False
    return False


# ---------------------------------------------------------------------------
# intervals and rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed interval on the x-axis; degenerate (lo == hi) allowed."""

    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        if self.lo > self.hi:
            raise GeometryError(f"interval lo > hi: {self.lo} > {self.hi}")

    @property
    def length(self) -> Scalar:
        return self.hi - self.lo


@dataclass(frozen=True)
class Rect:
    """Axis-aligned closed rectangle (x-range, y-range)."""

    x: Interval
    y: Interval

    @classmethod
    def of(cls, x0: Scalar, y0: Scalar, x1: Scalar, y1: Scalar) -> "Rect":
        return cls(Interval(x0, x1), Interval(y0, y1))

    @property
    def left(self) -> Scalar:
        return self.x.lo

    @property
    def right(self) -> Scalar:
        return self.x.hi

    @property
    def bottom(self) -> Scalar:
        return self.y.lo

    @property
    def top(self) -> Scalar:
        return self.y.hi

    @property
    def width(self) -> Scalar:
        return self.x.length

    @property
    def height(self) -> Scalar:
        return self.y.length

    @property
    def area(self) -> Scalar:
        return self.width * self.height

    def interior_overlaps(self, other: "Rect") -> bool:
        return (self.left < other.right and other.left < self.right
                and self.bottom < other.top and other.bottom < self.top)


# ---------------------------------------------------------------------------
# step profile (packing skyline)
# ---------------------------------------------------------------------------

class StepProfile:
    """Piecewise-constant function over [0, 1], stored as breakpoints.

    ``starts[i]`` is the left end of segment i (``starts[0] == 0``); segment
    i carries ``values[i]`` up to ``starts[i+1]`` (or 1 for the last one).
    """

    __slots__ = ("starts", "values")

    def __init__(self, starts: Sequence[Scalar], values: Sequence[Scalar]):
        if not starts or starts[0] != ZERO or len(starts) != len(values):
            raise GeometryError("malformed profile breakpoints")
        for a, b in zip(starts, starts[1:]):
            if not a < b:
                raise GeometryError("profile breakpoints not increasing")
        if starts[-1] >= ONE:
            raise GeometryError("profile breakpoints must stay below 1")
        self.starts = list(starts)
        self.values = list(values)

    @classmethod
    def constant(cls, value: Scalar) -> "StepProfile":
        return cls([ZERO], [value])

    def __eq__(self, other) -> bool:
        return (isinstance(other, StepProfile)
                and self.starts == other.starts and self.values == other.values)

    def copy(self) -> "StepProfile":
        return StepProfile(self.starts, self.values)

    def max_over(self, lo: Scalar, hi: Scalar) -> Scalar:
        """Max of the profile over the OPEN interior (lo, hi)."""
        if not lo < hi:
            raise GeometryError("max_over needs a positive-length interval")
        best = None
        n = len(self.starts)
        for i in range(n):
            seg_lo = self.starts[i]
            seg_hi = self.starts[i + 1] if i + 1 < n else ONE
            if seg_hi <= lo:
                continue
            if seg_lo >= hi:
                break
            v = self.values[i]
            if best is None or v > best:
                best = v
        assert best is not None
        return best

    def raised(self, lo: Scalar, hi: Scalar, value: Scalar) -> "StepProfile":
        """New profile with [lo, hi] raised to max(old, value)."""
        if lo >= hi:
            return self.copy()
        starts, values = [], []
        n = len(self.starts)
        for i in range(n):
            seg_lo = self.starts[i]
            seg_hi = self.starts[i + 1] if i + 1 < n else ONE
            v = self.values[i]
            pieces = []
            if seg_hi <= lo or seg_lo >= hi:
                pieces.append((seg_lo, v))
            else:
                if seg_lo < lo:
                    pieces.append((seg_lo, v))
                    seg_lo = lo
                cut = min(seg_hi, hi)
                pieces.append((seg_lo, v if v >= value else value))
                if cut < seg_hi:
                    pieces.append((cut, v))
            for s, val in pieces:
                if values and values[-1] == val:
                    continue
                starts.append(s)
                values.append(val)
        return StepProfile(starts, values)


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


def simple_cycle(edges) -> Optional[list[tuple[tuple, tuple]]]:
    """The cycle ``walk_boundary`` gives if the directed boundary edges form
    one simple closed curve, visiting no vertex twice; otherwise None."""
    succ = {edge[0]: edge for edge in edges}
    if len(succ) != len(edges):
        return None                 # a pinch vertex has two outgoing edges
    start = min(succ)
    cycle = []
    edge = succ[start]
    while True:
        cycle.append(edge)
        if edge[1] == start:
            break
        edge = succ[edge[1]]
    return cycle if len(cycle) == len(succ) else None


# ---------------------------------------------------------------------------
# rectilinear regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectilinearRegion:
    """Connected rectilinear region as interior-disjoint rects plus its
    boundary cycle (counterclockwise vertices)."""

    rects: tuple[Rect, ...]
    boundary: tuple[tuple[Scalar, Scalar], ...]

    @property
    def area(self) -> Scalar:
        return sum((r.area for r in self.rects), ZERO)

    @classmethod
    def from_cells(cls, cells: set[tuple[int, int]], xs: Sequence[Scalar],
                   ys: Sequence[Scalar]) -> "RectilinearRegion":
        # vertical-slab decomposition: maximal vertical runs per column,
        # then fuse equal-profile adjacent columns
        cols: dict[int, list[tuple[int, int]]] = {}
        for (i, j) in cells:
            cols.setdefault(i, []).append((j, j + 1))
        slabs = []
        for i, runs in sorted(cols.items()):
            runs.sort()
            merged = [list(runs[0])]
            for j0, j1 in runs[1:]:
                if j0 == merged[-1][1]:
                    merged[-1][1] = j1
                else:
                    merged.append([j0, j1])
            slabs.append((i, [tuple(m) for m in merged]))
        rects = []
        pending: dict[tuple, int] = {}
        prev_i = None
        prev_runs: list = []
        for i, runs in slabs:
            if prev_i is not None and i == prev_i + 1 and runs == prev_runs:
                for run in runs:
                    pending[run] = pending[run]
            else:
                for run, start in pending.items():
                    rects.append(_slab_rect(start, prev_i, run, xs, ys))
                pending = {run: i for run in runs}
            prev_i, prev_runs = i, runs
        for run, start in pending.items():
            rects.append(_slab_rect(start, prev_i, run, xs, ys))
        rects.sort(key=lambda r: (r.left, r.bottom))
        cycle = trace_boundary(cells)
        points = tuple((xs[i], ys[j]) for (i, j), _ in cycle)
        return cls(tuple(rects), points)


def _slab_rect(i0: int, i1: int, run: tuple[int, int], xs, ys) -> Rect:
    return Rect.of(xs[i0], ys[run[0]], xs[i1 + 1], ys[run[1]])


def free_components(obstacles: Sequence[Rect], ceiling: Scalar
                    ) -> list[RectilinearRegion]:
    """Bounded connected components of ([0,1] x [0, ceiling]) minus the
    obstacle interiors.  Components touching the ceiling are open to the
    space above and therefore not returned."""
    grid = ObstacleGrid([(r.left, r.right, r.bottom, r.top) for r in obstacles],
                        ONE, ceiling)
    out = []
    for comp in grid.free_components():
        if comp["bounded"]:
            out.append(RectilinearRegion.from_cells(comp["cells"], grid.xs, grid.ys))
    return out
