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

Geometry runs on one integer lattice per closed packing: the grid lines
scaled by the LCM of their denominators.  Cell and hole areas, side lengths
and diagonal crossings are integers; they become Fractions only where they
leave the module (``Hole.area``, run ``side_lengths``, ``P``/``Q``, charge
segments).

A split cuts a hole along a horizontal line into the star below it (under
a virtual lid) and the remainder.  The piece found first by growing both
sides of the cut in lockstep is built from its own cells.  The other is
derived from the parent: its boundary is the parent's with each boundary
edge of the first piece toggled, and its area is the parent's minus that
piece's.  The walk of a boundary depends only on its set of edges, so the
derived cycle is the one tracing the cells would give, and every check
runs on it as on a traced hole.  A split costs the smaller piece plus the
boundaries.

Structural facts used here are theorems for BottomLeft packings, so they
are asserted and raise AnalysisError loudly when violated: that means an
implementation bug (or a non-BottomLeft input).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .geometry import (ObstacleGrid, Rect, RectilinearRegion, boundary_edges,
                       merge_spans, simple_cycle, trace_boundary,
                       walk_boundary)
from .numbers import HALF, ONE, ZERO, Scalar
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


class AnalysisError(AssertionError):
    """A proven structural property failed: implementation bug or bad input."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"{name}: {detail}" if detail else name)


@dataclass(frozen=True)
class VirtualLid:
    """Imaginary copy of a square covering the unsupported cut MN."""

    owner: Placement
    rect: Rect
    mn_left: Scalar
    mn_right: Scalar
    level: Scalar

    @property
    def span(self) -> Scalar:
        return self.mn_right - self.mn_left


OWNER_GROUND = ("ground",)
OWNER_LWALL = ("lwall",)
OWNER_RWALL = ("rwall",)
OWNER_SEAM = ("seam",)


class _Context:
    """Shared grid decomposition for all holes of one closed packing.

    ``X``/``Y`` are the grid lines times ``unit``, the LCM of their
    denominators; ``dx``/``dy`` are the column widths and row heights.
    """

    def __init__(self, p: Packing):
        self.placements = p.placements
        self.grid = g = ObstacleGrid(p.obstacles(), p.height)
        self.copies: dict[int, VirtualLid] = {}
        self.unit = unit = lcm(*(v.denominator for v in g.xs + g.ys))
        self.X = [x.numerator * (unit // x.denominator) for x in g.xs]
        self.Y = [y.numerator * (unit // y.denominator) for y in g.ys]
        self.dx = [b - a for a, b in zip(self.X, self.X[1:])]
        self.dy = [b - a for a, b in zip(self.Y, self.Y[1:])]
        self.sq_owner = [("sq", k) for k in range(len(self.placements))]
        # per-placement grid index rectangles (il, ir, jb, jt)
        self.idx_rect = [(g.xi[pl.left], g.xi[pl.right],
                          g.yi[pl.bottom], g.yi[pl.top])
                         for pl in self.placements]

    def supported_spans(self, level: Scalar):
        """Closed x-spans with solid material immediately below a horizontal
        line of this height: squares spanning the line from below.  A point
        of the line outside these spans has free space directly under it."""
        spans = [(pl.left, pl.right) for pl in self.placements
                 if pl.bottom < level <= pl.top]
        return merge_spans(spans)


@dataclass
class _Run:
    owner: tuple
    points: list                       # grid vertices (i, j)
    lengths: dict = field(default_factory=dict)   # per side, on the lattice
    unit: int = 1

    @property
    def side_lengths(self) -> dict:
        return {side: Fraction(v, self.unit) for side, v in self.lengths.items()}

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def rect(self, ctx: _Context) -> Optional[Rect]:
        if self.owner[0] == "sq":
            return ctx.placements[self.owner[1]].rect()
        if self.owner[0] == "copy":
            return self.owner[1].rect
        return None


class Hole:
    """One hole: a set of free grid cells plus its traversed boundary.

    ``cycle`` is the directed boundary (interior on the left) and
    ``area_units`` the area on the integer lattice.  ``overrides`` gives
    the owners of the cut edges of earlier carves, each keyed by its left
    end.
    """

    def __init__(self, ctx: _Context, cells: frozenset,
                 overrides: Optional[dict] = None,
                 lid_virtual: Optional[VirtualLid] = None):
        """Trace a hole from its cells."""
        self._build(ctx, cells, dict(overrides or {}), lid_virtual,
                    trace_boundary(cells), _area_units(ctx, cells))

    @classmethod
    def from_boundary(cls, ctx: _Context, cells, overrides: dict,
                      lid_virtual: Optional[VirtualLid], cycle: list,
                      area_units: int) -> "Hole":
        """A hole whose boundary cycle and area are already known."""
        hole = cls.__new__(cls)
        hole._build(ctx, cells, overrides, lid_virtual, cycle, area_units)
        return hole

    # -- construction -------------------------------------------------------

    def _build(self, ctx: _Context, cells, overrides: dict,
               lid_virtual: Optional[VirtualLid], cycle: list,
               area_units: int):
        self.ctx = ctx
        self.cells = cells
        self.overrides = overrides
        self.lid_virtual = lid_virtual
        self.cycle = cycle
        runs = _runs(ctx, overrides, cycle)
        # Lemma 1: each square contributes one connected boundary curve
        seen = set()
        for r in runs:
            if r.owner[0] in ("sq", "copy", "lwall", "rwall"):
                if r.owner in seen:
                    raise AnalysisError(
                        "lemma1", f"owner {r.owner} contributes twice")
                seen.add(r.owner)
        self.touches_left = OWNER_LWALL in seen
        self.touches_right = OWNER_RWALL in seen
        if self.touches_left and self.touches_right:
            raise AnalysisError("two-walls", "hole touches both strip walls")
        lid_idx = self._lid_index(runs)
        self.runs = runs[lid_idx:] + runs[:lid_idx]
        for r in self.runs:
            self._measure_sides(r)
        self.area_units = area_units
        self.area = Fraction(area_units, ctx.unit * ctx.unit)
        lid = self.runs[0]
        rect = lid.rect(ctx)
        if rect is None:
            raise AnalysisError("lid", f"lid owner {lid.owner} is not a square")
        jb = min(j for _, j in lid.points)
        if ctx.grid.ys[jb] != rect.bottom:
            raise AnalysisError("lid", "lid segment not on the lid's bottom")
        on_bottom = [i for i, j in lid.points if j == jb]
        self.P = (ctx.grid.xs[min(on_bottom)], ctx.grid.ys[jb])
        self.Q = (ctx.grid.xs[max(on_bottom)], ctx.grid.ys[jb])
        if self.lid_virtual is not None and lid.owner[0] != "copy":
            raise AnalysisError("lid", "virtual-lid hole traversed a real lid")

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
        best = best_j = best_i = None
        for idx, r in enumerate(runs):
            for (i1, j1), (i2, j2) in zip(r.points, r.points[1:]):
                if j1 == j2 and i2 < i1 and (
                        best is None or j1 > best_j
                        or (j1 == best_j and i2 < best_i)):
                    best, best_j, best_i = idx, j1, i2
        if best is None:
            raise AnalysisError("lid", "no top boundary edge found")
        return best

    def _measure_sides(self, run: _Run):
        ctx = self.ctx
        kind = run.owner[0]
        if kind == "sq":
            il, ir, jb, jt = ctx.idx_rect[run.owner[1]]
        elif kind == "copy":
            il = ir = jb = jt = None
        else:
            return
        X, Y = ctx.X, ctx.Y
        left = bottom = right = top = 0
        for (i1, j1), (i2, j2) in zip(run.points, run.points[1:]):
            if i1 == i2:
                length = abs(Y[j2] - Y[j1])
                if i1 == il:
                    left += length
                elif i1 == ir:
                    right += length
                else:
                    raise AnalysisError("boundary", "edge off its owner's sides")
            else:
                length = abs(X[i2] - X[i1])
                # copies own only their cut line
                if kind == "copy" or j1 == jb:
                    bottom += length
                elif j1 == jt:
                    top += length
                else:
                    raise AnalysisError("boundary", "edge off its owner's sides")
        run.lengths = {SIDE_LEFT: left, SIDE_BOTTOM: bottom,
                       SIDE_RIGHT: right, SIDE_TOP: top}
        run.unit = ctx.unit

    # -- structure accessors ------------------------------------------------

    @property
    def kind(self) -> str:
        if self.touches_left:
            return KIND_LEFT_WALL
        if self.touches_right:
            return KIND_RIGHT_WALL
        return KIND_INTERIOR

    def contributing_squares(self) -> list[Placement]:
        return [self.ctx.placements[r.owner[1]] for r in self.runs
                if r.owner[0] == "sq"]

    def region(self) -> RectilinearRegion:
        return RectilinearRegion.from_cells(
            set(self.cells), self.ctx.grid.xs, self.ctx.grid.ys)

    def _run_after_lid(self) -> _Run:
        if len(self.runs) < 2 or self.runs[1].rect(self.ctx) is None:
            raise AnalysisError("structure", "no square run after the lid")
        return self.runs[1]

    def _run_before_lid(self) -> _Run:
        if len(self.runs) < 2:
            raise AnalysisError("structure", "hole has a single run")
        last = self.runs[-1]
        if last.owner[0] in ("lwall", "rwall"):
            last = self.runs[-2]
        if last.rect(self.ctx) is None:
            raise AnalysisError("structure", "no square run before the lid")
        return last

    def _run_before(self, run: _Run) -> _Run:
        pos = self.runs.index(run)
        return self.runs[(pos - 1) % len(self.runs)]

    def _run_after(self, run: _Run) -> _Run:
        pos = self.runs.index(run)
        return self.runs[(pos + 1) % len(self.runs)]

    def classify(self) -> str:
        """Type I if the last boundary square is a right neighbor of the
        previous one, Type II if it rests on the previous one's top.  A
        pseudo-floor (ground or carve seam) before the last square acts as a
        top that never gets charged, which matches the Type I shape."""
        if self.touches_left or self.touches_right:
            raise AnalysisError("classify", "wall holes are not typed")
        last = self._run_before_lid()
        prev = self._run_before(last)
        prev_rect = prev.rect(self.ctx)
        if prev_rect is None:
            if prev.owner in (OWNER_GROUND, OWNER_SEAM):
                return TYPE_I
            raise AnalysisError("lemma3", f"odd run {prev.owner} before the last")
        rect = last.rect(self.ctx)
        if prev_rect.right == rect.left \
                and min(prev_rect.top, rect.top) > max(prev_rect.bottom, rect.bottom):
            return TYPE_I
        if prev_rect.top == rect.bottom \
                and min(prev_rect.right, rect.right) > max(prev_rect.left, rect.left):
            return TYPE_II
        raise AnalysisError("lemma3", "last square neither right nor top neighbor")


def _runs(ctx: _Context, overrides: dict, cycle: list) -> list[_Run]:
    """Group a boundary cycle into maximal runs of edges with one owner.

    An edge's owner is its carve override if it has one (a virtual lid owns
    the whole cut even where a real square happens to roof part of it),
    else what lies on its right, outside the hole: a square, the ground or
    a wall.  Overrides are horizontal cut edges keyed by their left end.
    """
    grid = ctx.grid
    nx, ny, cell_owner, sq_owner = grid.nx, grid.ny, grid.owner, ctx.sq_owner
    override = overrides.get
    runs = []
    last = points = None
    for p1, p2 in cycle:
        (i1, j1), (i2, j2) = p1, p2
        owner = None
        if j1 == j2:
            if i2 > i1:                     # eastward: outside below
                owner = override(p1)
                if owner is None:
                    if j1 == 0:
                        owner = OWNER_GROUND
                    else:
                        idx = cell_owner[i1][j1 - 1]
            else:                           # westward: outside above
                owner = override(p2)
                if owner is None:
                    if j1 == ny:
                        raise AnalysisError("unbounded",
                                            "hole touches the ceiling")
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
                key = (p1, p2) if p1 <= p2 else (p2, p1)
                raise AnalysisError(
                    "boundary", f"free neighbor without seam at {key}")
            owner = sq_owner[idx]
        if owner == last:
            points.append(p2)
        else:
            points = [p1, p2]
            runs.append(_Run(owner, points))
            last = owner
    if len(runs) > 1 and runs[0].owner == runs[-1].owner:
        runs[-1].points.extend(runs[0].points[1:])
        runs[0] = runs.pop()
    return runs


# ---------------------------------------------------------------------------
# diagonals and hole splitting
# ---------------------------------------------------------------------------

def _diagonal_origin(hole: Hole) -> tuple[int, int]:
    """Start of the left diagonal, on the lattice: the point where the
    boundary leaves the second square, or that square's lower-right
    corner."""
    ctx = hole.ctx
    a2 = hole._run_after_lid()
    rect = a2.rect(ctx)
    i, j = a2.end
    if ctx.grid.xs[i] == rect.right:
        return (ctx.X[i], ctx.Y[j])
    return (ctx.X[ctx.grid.xi[rect.right]], ctx.Y[ctx.grid.yi[rect.bottom]])


def _ray_hit(hole: Hole, origin) -> Optional[tuple[tuple[int, int], int]]:
    """First counterclockwise boundary point where the slope -1 ray from
    ``origin`` passes INTO the hole's interior (out of solid material), on
    the lattice, with the index of the square it leaves.

    The ray's own start qualifies when the hole lies immediately southeast
    of it (then the split degenerates to a cut through the start level).
    Points where the ray leaves the hole, grazes a corner, or dives into a
    seam or floor are not crossings in this sense.
    """
    X, Y = hole.ctx.X, hole.ctx.Y
    ox, oy = origin
    c = ox + oy
    for run in hole.runs[1:] + hole.runs[:1]:
        pts = run.points
        for a in range(len(pts) - 1):
            (i1, j1), (i2, j2) = pts[a], pts[a + 1]
            if i1 == i2:
                x = X[i1]
                y = c - x
                if not (Y[j1] <= y <= Y[j2] or Y[j2] <= y <= Y[j1]):
                    continue
            else:
                y = Y[j1]
                x = c - y
                if not (X[i1] <= x <= X[i2] or X[i2] <= x <= X[i1]):
                    continue
            if x < ox:
                continue
            owner = _enters_hole_southeast(hole, x, y)
            if owner is not None:
                return (x, y), owner
    return None


def _enters_hole_southeast(hole: Hole, x: int, y: int) -> Optional[int]:
    """If the cell infinitesimally southeast of the lattice point (x, y) is
    a cell of the hole and the northwest side is solid, the index of the
    square there; otherwise None."""
    ctx = hole.ctx
    grid, X, Y = ctx.grid, ctx.X, ctx.Y
    ie = bisect_right(X, x) - 1                # column just right of x
    js = bisect_left(Y, y) - 1                 # row just below y
    if not (0 <= ie < grid.nx and 0 <= js < grid.ny):
        return None
    if (ie, js) not in hole.cells:
        return None
    iw = ie if X[ie] < x else ie - 1           # column just left of x
    jn = js if Y[js + 1] > y else js + 1       # row just above y
    if not (0 <= iw < grid.nx and 0 <= jn < grid.ny):
        return None
    return grid.owner[iw][jn]


@dataclass(frozen=True)
class SplitEvent:
    case: str                          # "A" (right side) or "B" (bottom)
    f_point: tuple
    up: Placement
    low: Placement
    lid: VirtualLid


def _find_split(hole: Hole) -> Optional[SplitEvent]:
    hit = _ray_hit(hole, _diagonal_origin(hole))
    if hit is None:
        return None
    ctx = hole.ctx
    (x, y), sq_idx = hit
    pt = (Fraction(x, ctx.unit), Fraction(y, ctx.unit))
    sq = ctx.placements[sq_idx]
    try:
        sq_run = next(r for r in hole.runs if r.owner == ("sq", sq_idx))
    except StopIteration:
        raise AnalysisError("split", f"crossing square {sq_idx} has no run")
    if pt[1] == sq.bottom:
        case = "B"
        up = sq
        low_run = hole._run_after(sq_run)
        if low_run.owner[0] != "sq":
            raise AnalysisError("lemma5", "no square below the overhang")
        low = ctx.placements[low_run.owner[1]]
    elif pt[0] == sq.right:
        case = "A"
        low = sq
        up_run = hole._run_before(sq_run)
        if up_run.owner[0] != "sq":
            raise AnalysisError("lemma5", "no square above the split point")
        up = ctx.placements[up_run.owner[1]]
    else:
        raise AnalysisError("split", f"crossing {pt} on neither R nor B of {sq}")
    # Lemma: the upper square rests on the lower one
    if not (up.bottom == low.top and up.left < low.right and low.left < up.right):
        raise AnalysisError(
            "lemma5", f"split pair not stacked: up={up} low={low}")
    level = low.top
    x_m = low.right
    x_n = None
    for lo, hi in ctx.supported_spans(level):
        if lo > x_m:
            x_n = lo
            break
        if hi > x_m:
            raise AnalysisError("lemma6", "cut start is supported")
    if x_n is None:
        if not hole.touches_right:
            raise AnalysisError("cor1", "no support right of the cut")
        x_n = ONE
    if not (x_n - x_m) < up.side:
        raise AnalysisError("lemma7", f"cut {x_n - x_m} not shorter than {up.side}")
    lid = VirtualLid(owner=up,
                     rect=Rect.of(x_n - up.side, level, x_n, level + up.side),
                     mn_left=x_m, mn_right=x_n, level=level)
    return SplitEvent(case, pt, up, low, lid)


def _carve(hole: Hole, ev: SplitEvent) -> tuple[Hole, Optional[Hole]]:
    """Remove the sub-hole below the cut; returns (below, remainder).

    Of the two pieces, the one ``_sides_of_cut`` finds is built from its
    own cells and the other is derived from ``hole``'s boundary; only a set
    difference, in C, touches the larger piece's cells.
    """
    ctx = hole.ctx
    grid = ctx.grid
    level = ev.lid.level
    j_top = grid.yi[level]
    i_lo = grid.xi[ev.lid.mn_left]
    i_hi = grid.xi[ev.lid.mn_right]
    throat = [(i, j_top - 1) for i in range(i_lo, i_hi)
              if (i, j_top - 1) in hole.cells]
    if not throat:
        raise AnalysisError("split", "empty throat under the cut")
    over_star = dict(hole.overrides)
    over_rest = dict(hole.overrides)
    for i in range(i_lo, i_hi):
        over_star[(i, j_top)] = ("copy", ev.lid)
        over_rest[(i, j_top)] = OWNER_SEAM
    below, above, star_cycle = _sides_of_cut(hole, throat, j_top, i_lo, i_hi)
    if below is not None:
        star = Hole(ctx, frozenset(below), over_star, lid_virtual=ev.lid)
        remainder = None
        if len(below) < len(hole.cells):
            remainder = Hole.from_boundary(
                ctx, hole.cells - below, over_rest, hole.lid_virtual,
                walk_boundary(_toggled(hole.cycle, star.cycle)),
                hole.area_units - star.area_units)
    else:
        star = Hole.from_boundary(
            ctx, hole.cells - above, over_star, ev.lid, star_cycle,
            hole.area_units - _area_units(ctx, above))
        remainder = (Hole(ctx, frozenset(above), over_rest,
                          lid_virtual=hole.lid_virtual) if above else None)
    # uniqueness: at most one virtual copy per square
    key = ev.up.item.index
    if key in ctx.copies:
        raise AnalysisError("copy-uniqueness",
                            f"square {key} used as a virtual lid twice")
    ctx.copies[key] = ev.lid
    return star, remainder


def _sides_of_cut(hole: Hole, throat: list, j_top: int, i_lo: int,
                  i_hi: int) -> tuple[Optional[set], Optional[set],
                                      Optional[list]]:
    """Grow both sides of the cut in lockstep and return the first one
    found, as ``(below, None, None)`` or ``(None, above, star_cycle)``.

    ``below`` is what the cut carves off: the cells under the cut line
    connected to the throat without crossing that line.  ``above`` grows
    from the cells over the cut without crossing it downward.  If it ends
    first without reaching the throat another way, and the rest of the hole
    lies under the cut line inside one simple cycle, that rest is connected,
    holds the throat and touches nothing else, so it is ``below``.
    Otherwise ``below`` is grown to the end.
    """
    cells = hole.cells
    below, grow_below = set(throat), list(throat)
    over = [(i, j_top) for i in range(i_lo, i_hi) if (i, j_top) in cells]
    above, grow_above = set(over), list(over)
    while grow_below:
        if grow_above is not None:
            if not grow_above:
                star_cycle = _star_cycle(hole, above, j_top)
                if star_cycle is not None:
                    return None, above, star_cycle
                grow_above = None
            else:
                i, j = grow_above.pop()
                for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if cell in above or cell not in cells:
                        continue
                    if cell[1] == j_top - 1 and i_lo <= cell[0] < i_hi:
                        if j != j_top:      # the throat, reached around the cut
                            grow_above = None
                            break
                        continue            # the throat, across the cut
                    above.add(cell)
                    grow_above.append(cell)
        i, j = grow_below.pop()
        for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if cell[1] < j_top and cell not in below and cell in cells:
                below.add(cell)
                grow_below.append(cell)
    return below, None, None


def _star_cycle(hole: Hole, above: set, j_top: int) -> Optional[list]:
    """Boundary cycle of the hole minus ``above`` if that piece lies under
    row ``j_top`` and its boundary is one simple cycle, else None."""
    edges = _toggled(hole.cycle, boundary_edges(above))
    if any(p[1] > j_top for p, _ in edges):
        return None
    return simple_cycle(edges)


def _toggled(cycle: list, piece_edges) -> set:
    """Directed boundary of a hole minus a piece of it, from the hole's
    boundary and the piece's: an edge of both leaves, and any other edge of
    the piece separates it from what is left, so its reverse joins."""
    edges = set(cycle)
    for p, q in piece_edges:
        if (p, q) in edges:
            edges.remove((p, q))
        else:
            edges.add((q, p))
    return edges


def _area_units(ctx: _Context, cells) -> int:
    dx, dy = ctx.dx, ctx.dy
    return sum(dx[i] * dy[j] for i, j in cells)


def split_hole(hole: Hole) -> list[Hole]:
    """Fully process one hole: repeatedly carve away the part below each
    diagonal crossing (each carved part is processed as its own hole with a
    virtual lid, and its pieces come before the remainder's) until no
    crossing remains."""
    out = []
    # (hole, carves it may still take); each carve removes at least one cell
    pending = [(hole, len(hole.cells) + 1)]
    while pending:
        current, budget = pending.pop()
        if budget == 0:
            raise AnalysisError("split", "splitting did not terminate")
        ev = None if current.touches_left else _find_split(current)
        if ev is None:
            out.append(current)
            continue
        star, remainder = _carve(current, ev)
        if remainder is not None:
            pending.append((remainder, budget - 1))
        pending.append((star, len(star.cells) + 1))     # popped first
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
    coeff_full: Fraction       # per-hole bound coefficient (lid bottom: 1)
    segment: Scalar

    @property
    def bound_part(self) -> Scalar:
        return self.coeff_full * self.segment * self.segment


def _charge_items(hole: Hole) -> list[ChargeTerm]:
    """Charged boundary terms of one diagonal-free hole, by hole kind."""
    ctx = hole.ctx
    lid = hole.runs[0]
    lid_virtual = lid.owner[0] == "copy"
    if lid_virtual:
        lid_square = lid.owner[1].owner
    else:
        lid_square = ctx.placements[lid.owner[1]]
    beta1 = lid.side_lengths[SIDE_BOTTOM]
    items = [ChargeTerm(lid_square.item.index, SIDE_BOTTOM, lid_virtual,
                        HALF if lid_virtual else Fraction(1), Fraction(1),
                        beta1)]

    def term(run: _Run, side: str, coeff: Fraction):
        seg = run.side_lengths[side]
        if run.owner[0] == "copy":
            raise AnalysisError("charge", "side charge landed on a copy")
        sq = ctx.placements[run.owner[1]]
        items.append(ChargeTerm(sq.item.index, side, False, coeff, coeff, seg))

    if hole.touches_left:
        term(hole._run_before_lid(), SIDE_LEFT, HALF)
        return items
    term(hole._run_after_lid(), SIDE_RIGHT, HALF)
    if hole.touches_right:
        return items
    if hole.classify() == TYPE_II:
        last = hole._run_before_lid()
        prev = hole._run_before(last)
        if prev.owner[0] != "sq":
            raise AnalysisError("structure", "no square carries the overhang")
        term(last, SIDE_BOTTOM, Fraction(1))
        term(prev, SIDE_LEFT, HALF)
    return items


def hole_area_bound(hole: Hole) -> Scalar:
    """Bound the hole area by its charged boundary segments and assert it."""
    bound = sum((t.bound_part for t in _charge_items(hole)), ZERO)
    if hole.area > bound:
        raise AnalysisError(
            "area-bound", f"hole area {hole.area} exceeds bound {bound}")
    _assert_right_diagonal(hole)
    return bound


def _assert_right_diagonal(hole: Hole):
    """The slope +1 diagonal from the last transition never cuts the hole."""
    if hole.touches_right:
        return                      # cut off by the wall; no right diagonal
    last = hole._run_before_lid()
    if not (hole.touches_left or hole.classify() == TYPE_I):
        last = hole._run_before(last)
    X, Y = hole.ctx.X, hole.ctx.Y
    qi, qj = last.start
    qx = X[qi]
    d = qx - Y[qj]
    for (i, j) in hole.cells:
        lo = max(X[i], d + Y[j])
        hi = min(X[i + 1], d + Y[j + 1], qx)
        if lo < hi:
            raise AnalysisError("lemma4", "right diagonal cuts the hole")


class ChargeLedger:
    """Per-square, per-side maximum charge coefficients plus the raw terms."""

    def __init__(self):
        self.terms: list[ChargeTerm] = []
        self.max_coeff: dict[tuple[int, str, bool], Fraction] = {}

    def add(self, terms: list[ChargeTerm]):
        for t in terms:
            self.terms.append(t)
            key = (t.square_index, t.side, t.virtual)
            if self.max_coeff.get(key, ZERO) < t.coeff:
                self.max_coeff[key] = t.coeff

    def total_charge(self, square_index: int) -> Fraction:
        return sum((c for (idx, _, _), c in self.max_coeff.items()
                    if idx == square_index), ZERO)

    def side_charge(self, square_index: int, side: str,
                    virtual: bool = False) -> Fraction:
        return self.max_coeff.get((square_index, side, virtual), ZERO)

    def bound_terms_sum(self) -> Scalar:
        return sum((t.bound_part for t in self.terms), ZERO)


def compute_charges(holes: Sequence[Hole]) -> ChargeLedger:
    ledger = ChargeLedger()
    for h in holes:
        ledger.add(_charge_items(h))
    for idx in {t.square_index for t in ledger.terms}:
        total = ledger.total_charge(idx)
        if total > Fraction(5, 2):
            raise AnalysisError("charge", f"square {idx} charged {total} > 5/2")
    return ledger


# ---------------------------------------------------------------------------
# top-level driver
# ---------------------------------------------------------------------------

def extract_holes(p_closed: Packing) -> list[Hole]:
    ctx = _Context(p_closed)
    holes = []
    for comp in ctx.grid.free_components():
        if comp["bounded"]:
            holes.append(Hole(ctx, frozenset(comp["cells"])))
    return holes


@dataclass
class BottomLeftAnalysis:
    packing: Packing
    closed: Packing
    raw_holes: list
    holes: list
    ledger: ChargeLedger
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def hole_sum(self) -> Scalar:
        return sum((h.area for h in self.raw_holes), ZERO)

    def report(self) -> str:
        lines = []
        for i, h in enumerate(self.holes, 1):
            kind = h.kind
            typ = "-" if kind != KIND_INTERIOR else h.classify()
            lid = "virtual" if h.lid_virtual is not None else "real"
            bound = sum((t.bound_part for t in _charge_items(h)), ZERO)
            lines.append(f"hole {i}: kind={kind} type={typ} lid={lid} "
                         f"area={h.area} bound={bound}")
        for idx in sorted({t.square_index for t in self.ledger.terms}):
            lines.append(f"square {idx}: charge={self.ledger.total_charge(idx)}")
        lines.extend(c.line() for c in self.checks)
        return "\n".join(lines)


def run_bottomleft_analysis(p: Packing) -> BottomLeftAnalysis:
    """Close the packing, extract and split all holes, build the ledger, and
    evaluate every exact accounting identity and bound."""
    closed = close_packing(p)
    raw = extract_holes(closed)
    finals = []
    for h in raw:
        finals.extend(split_hole(h))
    for h in finals:
        hole_area_bound(h)
    ledger = compute_charges(finals)

    checks = []
    area_sum = sum((pl.item.side ** 2 for pl in p.placements), ZERO)
    hole_sum = sum((h.area for h in raw), ZERO)
    height = p.height
    checks.append(Check("height-identity", height == area_sum + hole_sum,
                        str(height), "==", f"{area_sum} + {hole_sum}"))
    final_sum = sum((h.area for h in finals), ZERO)
    checks.append(Check("split-conservation", final_sum == hole_sum,
                        str(final_sum), "==", str(hole_sum)))
    closed_area = area_sum + ONE
    checks.append(Check("aggregate-bound",
                        hole_sum <= Fraction(5, 2) * closed_area,
                        str(hole_sum), "<=", f"5/2 * {closed_area}"))
    terms_sum = ledger.bound_terms_sum()
    checks.append(Check("terms-soundness", hole_sum <= terms_sum,
                        str(hole_sum), "<=", str(terms_sum)))
    ledger_sum = sum((ledger.total_charge(pl.item.index) * pl.item.side ** 2
                      for pl in closed.placements), ZERO)
    checks.append(Check("ledger-soundness", hole_sum <= ledger_sum,
                        str(hole_sum), "<=", str(ledger_sum)))
    max_charge = max((ledger.total_charge(pl.item.index)
                      for pl in closed.placements), default=ZERO)
    checks.append(Check("max-charge", max_charge <= Fraction(5, 2),
                        str(max_charge), "<=", "5/2"))
    checks.append(Check("theorem1",
                        height <= Fraction(7, 2) * area_sum + Fraction(5, 2),
                        str(height), "<=", f"7/2 * {area_sum} + 5/2"))
    return BottomLeftAnalysis(p, closed, raw, finals, ledger, checks)
