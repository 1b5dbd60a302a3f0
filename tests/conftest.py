"""Shared helpers: instance builders, brute-force oracles and work counters."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from strippack.packing import (Packing, PackingError, Placement, SquareItem,
                               _Lattice, reachable_positions)

GRID = 2 ** 20


def items(*sides) -> list[SquareItem]:
    return [SquareItem(i, Fraction(s)) for i, s in enumerate(sides, 1)]


def random_items(seed: int, n: int, lo=Fraction(1, 64), hi=Fraction(1)) -> list[SquareItem]:
    rng = random.Random(seed)
    lo_n = -((-lo * GRID).__floor__())
    hi_n = (hi * GRID).__floor__()
    return [SquareItem(i, Fraction(rng.randint(lo_n, hi_n), GRID))
            for i in range(1, n + 1)]


def nondyadic_items(seed: int) -> list[SquareItem]:
    """40 sides k/315, so the lattice scale is no power of two."""
    rng = random.Random(f"nondyadic:{seed}")
    return [SquareItem(i, Fraction(rng.randint(4, 315), 315))
            for i in range(1, 41)]


def corpus_items(seed: int) -> list[SquareItem]:
    """Acceptance-corpus instance ``seed``: 30 sides, generator 1_000_000+seed."""
    return random_items(1_000_000 + seed, 30)


def deep_items(i: int) -> list[SquareItem]:
    """The slot-deep bench panel: eight sides at levels 1-5, then four at
    levels 10-13, drawn from Random("slot-deep:<i>")."""
    rng = random.Random(f"slot-deep:{i}")
    side = lambda k: Fraction(rng.randint((GRID >> (k + 1)) + 1, GRID >> k),
                              GRID)
    shallow = [side(k) for k in (1, 2, 3, 3, 4, 4, 5, 5)]
    deep = [side(k) for k in (10, 11, 12, 13)]
    rng.shuffle(shallow)
    rng.shuffle(deep)
    return [SquareItem(j, a) for j, a in enumerate(shallow + deep, 1)]


def rect_on(p: Packing, pl: Placement) -> tuple[int, int, int, int]:
    """``pl``'s ``(l, r, b, t)`` on ``p``'s lattice, the input of the step
    checks, fitting the lattice to it first."""
    l, b, s = p.units(pl.x, pl.y, pl.item.side)
    return l, l + s, b, b + s


def placement_at(p: Packing, item: SquareItem, at) -> Placement:
    """The ``Placement`` of ``item`` at lattice rect ``at`` of ``p``."""
    (scale,) = p.units(Fraction(1))
    return Placement(item, Fraction(at[0], scale), Fraction(at[2], scale))


def placements(p: Packing) -> tuple[Placement, ...]:
    """``p``'s squares as ``Placement``s, built from its items and lattice
    rects at every call."""
    s, rects = p.lattice()
    return tuple(Placement(item, Fraction(l, s), Fraction(b, s))
                 for item, (l, _, b, _) in zip(p.items, rects))


def floor_rect(p: Packing, a: Fraction,
               floor: Fraction = Fraction(0)) -> tuple[int, int, int, int]:
    """The lattice rect of a side-``a`` square at x = 0 with its bottom on
    ``floor``, the input of the reachability sweep."""
    sa, low = p.units(a, floor)
    return 0, sa, low, low + sa


def window_reads(run) -> int:
    """The rects that ``Packing.window`` returns while ``run()`` runs.  In
    ``verify_packing`` only the step checker's fallback, ``check_step``
    with its support test, reads windows, so this counts what the fallback
    reads."""
    reads, window = 0, Packing.window

    def counted(self, lo, hi):
        nonlocal reads
        out = window(self, lo, hi)
        reads += len(out)
        return out

    Packing.window = counted
    try:
        run()
    finally:
        Packing.window = window
    return reads


def assert_grows_linearly(count, n: int,
                          slack=Fraction(1, 4)) -> tuple[int, int]:
    """Growth gate on one layer's work count for one input family:
    ``count(4 n) <= 4 (1 + slack) count(n)``.  Returns both counts.  A
    count that is 0 at n must stay 0 at 4n."""
    small, large = count(n), count(4 * n)
    assert large <= 4 * (1 + slack) * small, (n, small, large)
    return small, large


def fresh_python(code: str, timeout: float = 60) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on its path and
    return what it prints; a failure fails the calling test."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def grown(pls) -> Packing:
    """The packing of placements ``pls``, valid or not: ``Packing()``
    extended by each in turn, the one way to build a packing.  A test that
    wants a branch off a snapshot grows its prefix again."""
    p = Packing()
    for pl in pls:
        p = p.extended(pl.item, rect_on(p, pl))
    return p


def packing_of(coords) -> Packing:
    """Build a packing directly from (side, x, y) triples."""
    return grown(Placement(SquareItem(i, Fraction(side)), Fraction(x),
                           Fraction(y))
                 for i, (side, x, y) in enumerate(coords, 1))


def rest_height(p: Packing, x: Fraction, a: Fraction) -> Fraction:
    """Slot oracle: landing height of a vertical drop, the smallest y such
    that the square [x, x+a] x [y, y+a] clears every placed square whose
    x-extent overlaps the open footprint (x, x+a)."""
    if not (0 <= x <= 1 - a):
        raise PackingError(f"x={x} out of range for side {a}")
    return max((pl.y + pl.item.side for pl in placements(p)
                if pl.x < x + a and x < pl.x + pl.item.side),
               default=Fraction(0))


def spans_at(p: Packing, a: Fraction, y: Fraction) -> list[tuple[int, int]]:
    """Left-edge spans of side ``a`` reachable at height exactly y, on the
    packing's lattice: the sweep floored at y finds every level at or above
    y as an unfloored one does, so its spans if it returns y itself, and
    none if it seals above y."""
    level, spans = reachable_positions(p, floor_rect(p, a, y))
    return spans if level == p.units(y)[0] else []


def at_level(p: Packing, a: Fraction,
             y: Fraction) -> list[tuple[Fraction, Fraction]]:
    """``spans_at`` as Fractions."""
    spans = spans_at(p, a, y)
    (scale,) = p.units(Fraction(1))
    return [(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in spans]


def grid_bfs_reachable(p: Packing, a: Fraction, step: Fraction):
    """Brute-force motion-planning oracle on a square grid.

    Configurations are left-edge positions; moves are left, right, down by
    one step; a configuration is legal iff the closed square's interior
    avoids every placed square.  The walk starts from all legal positions at
    the packing's top level.  Returns (reachable, nx, ny) where reachable is
    a set of (ix, iy) grid indices with x = ix*step, y = iy*step.
    """
    x_hi = (Fraction(1) - a) / step
    y_hi = p.height / step
    assert x_hi.denominator == 1 and y_hi.denominator == 1, "grid mismatch"
    nx, ny = int(x_hi), int(y_hi)

    # blocked[ix][iy]: the closed square's interior would hit an obstacle;
    # strict inequalities make index ranges half-open on both sides
    blocked = [bytearray(ny + 1) for _ in range(nx + 1)]
    for pl in placements(p):
        ix_lo = _strict_above((pl.x - a) / step)
        ix_hi = _strict_below((pl.x + pl.item.side) / step, nx)
        iy_lo = _strict_above((pl.y - a) / step)
        iy_hi = _strict_below((pl.y + pl.item.side) / step, ny)
        for ix in range(ix_lo, ix_hi + 1):
            row = blocked[ix]
            for iy in range(iy_lo, iy_hi + 1):
                row[iy] = 1

    reachable = set()
    queue = deque()
    for ix in range(nx + 1):
        if not blocked[ix][ny]:
            reachable.add((ix, ny))
            queue.append((ix, ny))
    while queue:
        ix, iy = queue.popleft()
        for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1)):
            if 0 <= jx <= nx and 0 <= jy <= ny and not blocked[jx][jy] \
                    and (jx, jy) not in reachable:
                reachable.add((jx, jy))
                queue.append((jx, jy))
    return reachable, nx, ny


def _strict_above(v: Fraction) -> int:
    """Smallest index strictly greater than v, at least 0."""
    return max(v.__floor__() + 1, 0)


def _strict_below(v: Fraction, cap: int) -> int:
    """Largest index strictly smaller than v, at most cap."""
    f = v.__floor__()
    idx = f - 1 if f == v else f
    return min(idx, cap)


@pytest.fixture
def conversions(monkeypatch):
    """Counts of ``_Lattice.units`` calls and of rescales, as they happen."""
    counts = {"units": 0, "rescales": 0}
    units, fit = _Lattice.units, _Lattice.fit

    def counted_units(self, *values):
        counts["units"] += 1
        return units(self, *values)

    def counted_fit(self, *values):
        scale = self.scale
        f = fit(self, *values)
        counts["rescales"] += self.scale != scale
        return f

    monkeypatch.setattr(_Lattice, "units", counted_units)
    monkeypatch.setattr(_Lattice, "fit", counted_fit)
    return counts


@pytest.fixture
def built(monkeypatch):
    """The number of ``Placement``s constructed so far."""
    counts = {"placements": 0}
    init = Placement.__init__

    def counted(self, *args, **kwargs):
        counts["placements"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Placement, "__init__", counted)
    return counts
