"""Instance I/O, random generation, placement CSV, statistics, SVG output.

All serialization is exact: rationals are written as ``p/q`` and parsed
back without loss, so run -> csv -> verify round-trips exactly.  SVG output
is deterministic (byte-identical for identical inputs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numbers import ONE, ZERO, Scalar, format_scalar, scalar
from .packing import Packing, Placement, SquareItem

GRID = 2 ** 20


class InstanceError(ValueError):
    pass


def parse_instance(text: str) -> list[SquareItem]:
    """One side per line, ``p/q`` or a finite decimal; ``#`` starts a
    comment; blank lines are skipped."""
    items: list[SquareItem] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            items.append(SquareItem(len(items) + 1, scalar(line)))
        except ValueError as exc:
            raise InstanceError(f"line {lineno}: {exc}") from exc
    return items


def instance_text(items: Sequence[SquareItem]) -> str:
    return "".join(f"{format_scalar(it.side)}\n" for it in items)


def gen_random(n: int, seed: int, min_side: Scalar = Fraction(1, 64),
               max_side: Scalar = ONE) -> list[SquareItem]:
    """n >= 0 sides uniform over the denominator-2^20 grid within
    [min, max]."""
    if n < 0:
        raise InstanceError(f"need n >= 0, got {n}")
    if not (ZERO < min_side <= max_side <= ONE):
        raise InstanceError("need 0 < min <= max <= 1")
    lo = -((-min_side * GRID).__floor__())    # ceil
    hi = (max_side * GRID).__floor__()
    if lo > hi:
        raise InstanceError("no grid point in the requested range")
    rng = random.Random(seed)
    return [SquareItem(i, Fraction(rng.randint(lo, hi), GRID))
            for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# placements CSV
# ---------------------------------------------------------------------------

def placements_csv(p: Packing) -> str:
    lines = ["id,side,x,y"]
    for pl in p.placements:
        lines.append(",".join((str(pl.item.index), format_scalar(pl.item.side),
                               format_scalar(pl.x), format_scalar(pl.y))))
    return "\n".join(lines) + "\n"


def parse_placements_csv(text: str, seq: Sequence[SquareItem]) -> list[Placement]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "id,side,x,y":
        raise InstanceError("placements CSV must start with 'id,side,x,y'")
    pls = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise InstanceError(f"line {lineno}: expected 4 fields")
        idx, side, x, y = parts
        try:
            idx, side, x, y = int(idx), scalar(side), scalar(x), scalar(y)
            pls.append(Placement(SquareItem(idx, side), x, y))
        except ValueError as exc:
            raise InstanceError(f"line {lineno}: {exc}") from exc
    if len(pls) != len(seq):
        raise InstanceError(f"{len(pls)} placements for {len(seq)} squares")
    return pls


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass
class RunStats:
    n: int
    height: Scalar
    area_sum: Scalar
    max_side: Scalar

    @property
    def lower_bound(self) -> Scalar:
        """max(total area, largest side): a valid lower bound on any height."""
        return self.area_sum if self.area_sum >= self.max_side else self.max_side

    @property
    def ratio(self) -> Scalar:
        return self.height / self.lower_bound if self.lower_bound > ZERO else ZERO

    def lines(self) -> list[str]:
        return [f"n {self.n}",
                f"height {format_scalar(self.height)} (~{float(self.height):.6g})",
                f"area-sum {format_scalar(self.area_sum)} (~{float(self.area_sum):.6g})",
                f"ratio {format_scalar(self.ratio)} (~{float(self.ratio):.6g})"]


def run_stats(seq: Sequence[SquareItem], p: Packing) -> RunStats:
    area = sum((it.side ** 2 for it in seq), ZERO)
    biggest = max((it.side for it in seq), default=ZERO)
    return RunStats(len(seq), p.height, area, biggest)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_SVG_SCALE = 400
_FILLS = ("#9ecae1", "#a1d99b", "#fdae6b", "#bcbddc", "#fc9272", "#c7e9c0",
          "#fdd0a2", "#dadaeb")


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def render_svg(p: Packing, holes: Optional[Sequence] = None) -> str:
    """Deterministic SVG: strip outline, one labeled rect per square in
    arrival order, optional hatched hole overlays (y axis points up)."""
    W = _SVG_SCALE
    total_h = float(p.height or ONE) * _SVG_SCALE

    def X(v) -> str:
        return _fmt(float(v) * _SVG_SCALE)

    def Y(v) -> str:
        return _fmt(total_h - float(v) * _SVG_SCALE)

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{W}" height="{_fmt(total_h)}" '
           f'viewBox="0 0 {W} {_fmt(total_h)}">']
    out.append(f'<rect x="0" y="0" width="{W}" height="{_fmt(total_h)}" '
               'fill="white" stroke="black" stroke-width="1"/>')
    for pl in p.placements:
        fill = _FILLS[(pl.item.index - 1) % len(_FILLS)]
        side = float(pl.item.side) * _SVG_SCALE
        out.append(f'<rect x="{X(pl.x)}" y="{Y(pl.top)}" '
                   f'width="{_fmt(side)}" height="{_fmt(side)}" '
                   f'fill="{fill}" stroke="black" stroke-width="0.5"/>')
        out.append(f'<text x="{X(pl.x + pl.item.side / 2)}" '
                   f'y="{Y(pl.y + pl.item.side / 2)}" '
                   f'font-size="{_fmt(max(side / 3, 8.0))}" '
                   'text-anchor="middle" dominant-baseline="middle">'
                   f'{pl.item.index}</text>')
    for hole in holes or ():
        for rect in hole.region():
            out.append(f'<rect x="{X(rect.left)}" y="{Y(rect.top)}" '
                       f'width="{_fmt(float(rect.width) * _SVG_SCALE)}" '
                       f'height="{_fmt(float(rect.height) * _SVG_SCALE)}" '
                       'fill="#d62728" fill-opacity="0.35" stroke="none"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
