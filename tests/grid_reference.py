"""Reference raw-hole extraction: the dense cell grid that holes were
first found on.

The closed packing's strip is cut into a grid on every distinct x and y,
solid cells included.  The free cells are flooded into 4-connected
components, each bounded component's unit-edge boundary is traced
counterclockwise, every unit edge gets the owner outside it, and each run
of one owner keeps only its corners.  The package now finds raw holes
from the uncovered parts of the squares' sides, walked into cycles
(``geometry.ObstacleGrid``); the tests keep this route as the oracle those
cycles are checked against.  It costs (n+1)^2 cells, so it suits only
instances of a few hundred squares.
"""

from typing import Optional, Sequence

from strippack.holes import (OWNER_GROUND, OWNER_LWALL, OWNER_RWALL,
                             AnalysisError, Hole, _Context, _Run, _shoelace)


class GridError(ValueError):
    """The reference grid or a boundary walk on it is malformed."""


class ObstacleGrid:
    """Coordinate-compressed decomposition of [0, width] x [0, ceiling].

    Obstacles are ``(l, r, b, t)`` tuples of any exactly ordered type.
    Cell (i, j) spans [xs[i], xs[i+1]] x [ys[j], ys[j+1]]; ``owner[i][j]``
    is the index of the obstacle covering it, or None for free space.
    """

    def __init__(self, obstacles: Sequence[tuple], width, ceiling):
        xs = {0, width}
        ys = {0, ceiling}
        for l, r, b, t in obstacles:
            if t > ceiling:
                raise GridError("ceiling below an obstacle")
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
                        raise GridError(
                            f"overlapping obstacles {col[j]} and {idx}")
                    col[j] = idx

    def free_components(self) -> list[dict]:
        """4-connected components of free cells.

        Returns dicts with keys ``cells`` (set of (i, j)) and ``bounded``
        (does not touch the ceiling row), in the order of their smallest
        cell.
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
                raise GridError(f"no left turn at pinch vertex {cur}")
            outs.remove(edge)
        cycle.append(edge)
        prev, cur = cur, edge[1]
        if cur == start and start not in out:
            break
    if len(cycle) != len(edges):
        raise GridError("region boundary is not a single cycle")
    return cycle


def _extend(points: list, p: tuple[int, int]):
    """Append the lattice point p to a corner list, dropping the last point
    when it lies on the straight line from the one before it to p."""
    if len(points) > 1:
        (x0, y0), (x1, y1) = points[-2], points[-1]
        if x0 == x1 == p[0] or y0 == y1 == p[1]:
            points[-1] = p
            return
    points.append(p)


def traced_runs(grid: ObstacleGrid, owners: list, cycle: list) -> list[_Run]:
    """Group a traced cycle of unit grid edges into maximal runs of edges
    with one owner, kept as lattice corners.

    An edge's owner is what lies on its right, outside the hole: a square
    (``owners`` of the grid's obstacle index), the ground or a wall.  The
    cycle starts at the lower-left corner of the hole's smallest cell: the
    first edge has the cell below or the ground outside, the last the cell
    to the left or the left wall, and a square holding both would hold that
    cell, so the first and last runs never share an owner.
    """
    X, Y = grid.xs, grid.ys
    nx, ny, cell_owner = grid.nx, grid.ny, grid.owner
    runs = []
    last = points = None
    for (i1, j1), (i2, j2) in cycle:
        owner = None
        if j1 == j2:
            if i2 > i1:                     # eastward: outside below
                if j1 == 0:
                    owner = OWNER_GROUND
                else:
                    idx = cell_owner[i1][j1 - 1]
            else:                           # westward: outside above
                if j1 == ny:
                    raise AnalysisError("unbounded", "hole touches the ceiling")
                idx = cell_owner[i2][j1]
        elif j2 > j1:                       # northward: outside right
            if i1 == nx:
                owner = OWNER_RWALL
            else:
                idx = cell_owner[i1][j1]
        else:                               # southward: outside left
            if i1 == 0:
                owner = OWNER_LWALL
            else:
                idx = cell_owner[i1 - 1][j2]
        if owner is None:
            if idx is None:
                raise AnalysisError(
                    "boundary", f"free cell outside the hole at {(i1, j1)}")
            owner = owners[idx]
        if owner == last:
            _extend(points, (X[i2], Y[j2]))
        else:
            points = [(X[i1], Y[j1]), (X[i2], Y[j2])]
            runs.append((owner, points))
            last = owner
    return [_Run(owner, tuple(points)) for owner, points in runs]


def grid(ctx: _Context) -> ObstacleGrid:
    """The obstacle grid on a context's lattice rects, as extraction built
    it."""
    ceiling = max((t for *_, t in ctx.rects), default=0)
    return ObstacleGrid(ctx.rects, ctx.scale, ceiling)


def extract_holes(p_closed) -> list[Hole]:
    """The raw holes of a closed packing, found on the dense grid."""
    ctx = _Context(p_closed)
    g = grid(ctx)
    owners = [("sq", k) for k in range(len(ctx.rects))]
    holes = []
    for comp in g.free_components():
        if comp["bounded"]:
            runs = traced_runs(g, owners, trace_boundary(comp["cells"]))
            holes.append(Hole(ctx, runs, _shoelace(runs)))
    return holes
