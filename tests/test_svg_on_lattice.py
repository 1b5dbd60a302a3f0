"""The SVG is drawn from the lattice integers, byte for byte as from Fractions.

``render_svg`` divides each lattice integer by its scale, the packing's or
a hole's.  ``fraction_svg`` is the route it replaces: each square's corner,
top and centre as a ``Placement``'s Fractions, and each hole's slabs as
Fraction rectangles, each made a float.  Both routes are compared on the
instance families of ``test_run_on_lattice``, the empty packing among them:
as ``run --svg`` draws a packing, as ``analyze --strategy bottomleft --svg``
draws the closed packing with its holes, and as ``analyze --strategy slot
--svg`` draws the closed packing after ``charge_map`` has read it."""

from fractions import Fraction as F

import pytest

from conftest import placements
from strippack.cli import STRATEGIES, main
from strippack.geometry import Rect
from strippack.harness import (_FILLS, _SVG_SCALE, _fmt, instance_text,
                               render_svg)
from strippack.holes import run_bottomleft_analysis
from strippack.numbers import ONE
from strippack.packing import close_packing, pack
from strippack.shadows import charge_map, check_slot_bounds
from test_run_on_lattice import KINDS, instances


def hole_region(hole) -> tuple[Rect, ...]:
    """The hole's slabs as Fraction rectangles."""
    s = hole.ctx.scale
    return tuple(Rect(F(x0, s), F(x1, s), F(y0, s), F(y1, s))
                 for x0, x1, spans in hole.slabs() for y0, y1 in spans)


def fraction_svg(p, holes=None) -> str:
    """The SVG as drawn from the ``Placement``s and hole regions."""
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
    for pl in placements(p):
        fill = _FILLS[(pl.item.index - 1) % len(_FILLS)]
        side = float(pl.item.side) * _SVG_SCALE
        out.append(f'<rect x="{X(pl.x)}" y="{Y(pl.y + pl.item.side)}" '
                   f'width="{_fmt(side)}" height="{_fmt(side)}" '
                   f'fill="{fill}" stroke="black" stroke-width="0.5"/>')
        out.append(f'<text x="{X(pl.x + pl.item.side / 2)}" '
                   f'y="{Y(pl.y + pl.item.side / 2)}" '
                   f'font-size="{_fmt(max(side / 3, 8.0))}" '
                   'text-anchor="middle" dominant-baseline="middle">'
                   f'{pl.item.index}</text>')
    for hole in holes or ():
        for rect in hole_region(hole):
            width, height = rect.right - rect.left, rect.top - rect.bottom
            out.append(f'<rect x="{X(rect.left)}" y="{Y(rect.top)}" '
                       f'width="{_fmt(float(width) * _SVG_SCALE)}" '
                       f'height="{_fmt(float(height) * _SVG_SCALE)}" '
                       'fill="#d62728" fill-opacity="0.35" stroke="none"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def bottomleft_overlay(seq):
    """``analyze --strategy bottomleft``'s closed packing and holes."""
    ana = run_bottomleft_analysis(pack(STRATEGIES["bottomleft"], seq))
    return ana.closed, ana.holes


def slot_closed(seq):
    """``analyze --strategy slot``'s closed packing, after its checks."""
    closed = close_packing(pack(STRATEGIES["slot"], seq))
    check_slot_bounds(closed, charge_map(closed))
    return closed


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("kind", KINDS)
def test_run_svg_equals_the_fraction_route(kind, name):
    for seq in instances(kind):
        p = pack(STRATEGIES[name], seq)
        assert render_svg(p) == fraction_svg(p)


@pytest.mark.parametrize("kind", KINDS)
def test_analysis_svgs_equal_the_fraction_route(kind):
    holes = 0
    for seq in instances(kind):
        closed, found = bottomleft_overlay(seq)
        assert render_svg(closed, found) == fraction_svg(closed, found)
        holes += len(found)
        closed = slot_closed(seq)
        assert render_svg(closed) == fraction_svg(closed)
    assert holes > 0


@pytest.mark.parametrize("kind", KINDS)
def test_cli_svgs_equal_the_fraction_route(kind, tmp_path, capsys):
    # the first instance of each kind, through the command line
    seq = instances(kind)[0]
    inst, svg = tmp_path / "in.txt", tmp_path / "out.svg"
    inst.write_text(instance_text(seq))
    for name in sorted(STRATEGIES):
        assert main(["run", "--strategy", name, "--input", str(inst),
                     "--svg", str(svg)]) == 0
        assert svg.read_text() == fraction_svg(pack(STRATEGIES[name], seq))
    want = {"bottomleft": fraction_svg(*bottomleft_overlay(seq)),
            "slot": fraction_svg(slot_closed(seq))}
    for name in sorted(STRATEGIES):
        assert main(["analyze", "--strategy", name, "--input", str(inst),
                     "--svg", str(svg)]) == 0
        assert svg.read_text() == want[name]
    capsys.readouterr()
