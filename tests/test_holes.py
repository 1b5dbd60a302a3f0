import hashlib
from fractions import Fraction as F
from random import Random
from types import SimpleNamespace

import pytest

from conftest import items, packing_of, random_items
from strippack import holes
from strippack.bottomleft import BottomLeftState
from strippack.geometry import trace_boundary
from strippack.harness import render_svg
from strippack.holes import (KIND_INTERIOR, KIND_LEFT_WALL, KIND_RIGHT_WALL,
                             OWNER_SEAM, TYPE_I, TYPE_II, Hole,
                             compute_charges, extract_holes, hole_area_bound,
                             run_bottomleft_analysis, split_hole)
from strippack.packing import Packing, SquareItem, close_packing, pack

# the large-workload panel: 100 sides randint(2^14, 2^20) / 2^20
LARGE_PANEL = [random_items(f"large:{i}", 100) for i in range(3)]
# sha256 of run_bottomleft_analysis(pack(BottomLeftState, seq)).report() on
# the panel, as computed by the cell-by-cell Fraction implementation
LARGE_REPORT_SHA256 = [
    "4a744676e8ec040b96eea326ca567862c2ec93e2938fee539bda14359f8e1e1c",
    "0a41cd1c98743b8a73ccd5553415ef3b4e7c77e074cb941e476f5b652db6dd7d",
    "a38450ccc63035c2431d25bb195efc6cce837aa8f64a525e446ffd6f23b973de",
]


def nondyadic_items(seed: int):
    """40 sides k/315, so the lattice scale is no power of two."""
    rng = Random(f"nondyadic:{seed}")
    return [SquareItem(i, F(rng.randint(4, 315), 315)) for i in range(1, 41)]


# sha256 of the report on nondyadic_items(0..2), computed on the Fraction
# grid before hole analysis moved to the packing's lattice
NONDYADIC_REPORT_SHA256 = [
    "2c61f8bc91195f2813c696928c5ab1a32f2eddaca56ed4728402cd63c38bc9ca",
    "463e308520690ad157cafb967bc86f87ad3ac57d4c7c30f3308e405cf60433cf",
    "e475fe9a4dbbbfe7f005da3f2e4820442177f8c74a4f156ec4e0f4358b66f91c",
]
# sha256 of render_svg(closed, holes) with the hole overlay, computed the
# same way: LARGE_PANEL[0] and nondyadic_items(0)
SVG_SHA256 = {
    "large:0": "fec85b7e2392a263ac2cb14581bbc83fb5c77fde39f8a21a35f308f8d774cf8a",
    "nondyadic:0":
        "1c3ba8382faab7a8b6b290721e95cde0da74da1eb7fab5a131d1aade4b7eface",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_items(seed: int):
    """Acceptance-corpus instance ``seed``: 30 sides, generator 1_000_000+seed."""
    return random_items(1_000_000 + seed, 30)


class TestClosePacking:
    def test_empty(self):
        closed = close_packing(Packing.empty())
        assert closed.placements[-1].x == 0
        assert closed.placements[-1].y == 0
        assert closed.height == 1

    def test_half(self):
        closed = close_packing(packing_of([("1/2", 0, 0)]))
        assert closed.placements[-1].y == F(1, 2)

    def test_three_square(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        closed = close_packing(p)
        assert closed.placements[-1].y == F(11, 10)


class TestExtraction:
    def test_ground_rows_no_holes(self):
        p = pack(BottomLeftState, items("1/2", "1/2"))
        assert extract_holes(close_packing(p)) == []

    def test_three_square_single_hole(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        holes = extract_holes(close_packing(p))
        assert len(holes) == 1
        h = holes[0]
        assert h.area == F(6, 25)
        assert h.kind == KIND_RIGHT_WALL
        # closing square is the lid, the step square bounds on the left
        assert h.runs[0].owner == ("sq", 3)
        assert len(h.contributing_squares()) == 3

    def test_ground_gap_u_shape(self):
        p = packing_of([("2/5", 0, 0), ("2/5", "3/5", 0), (1, 0, "2/5")])
        holes = extract_holes(p)
        assert len(holes) == 1
        h = holes[0]
        assert h.kind == KIND_INTERIOR
        assert h.area == F(2, 25)
        assert len(h.contributing_squares()) == 3
        assert h.classify() == TYPE_I

    def test_flush_stack_is_type_two(self):
        # the last boundary square rests on the previous one (corner entry)
        seq = items("1/2", "1/16", "9/16", "3/8", "3/8", "15/16")
        holes = extract_holes(close_packing(pack(BottomLeftState, seq)))
        interior = [h for h in holes if h.kind == KIND_INTERIOR]
        assert len(interior) == 1
        assert interior[0].classify() == TYPE_II
        assert interior[0].area == F(7, 256)


class TestSplitting:
    def test_diagonal_free_hole_unchanged(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        holes = extract_holes(close_packing(p))
        pieces = split_hole(holes[0])
        assert len(pieces) == 1
        assert pieces[0].lid_virtual is None

    def test_staircase_split_with_virtual_lid(self):
        seq = items("7/8", 1, "1/2", "1/8", "3/8", "5/8")
        p = pack(BottomLeftState, seq)
        ana = run_bottomleft_analysis(p)
        assert [str(h.area) for h in ana.raw_holes] == ["21/64", "7/64"]
        assert len(ana.holes) == 3
        virtual = [h for h in ana.holes if h.lid_virtual is not None]
        assert len(virtual) == 1
        assert virtual[0].lid_virtual.owner.item.index == 6
        assert virtual[0].area == F(3, 32)
        assert sum(h.area for h in ana.holes) == sum(h.area for h in ana.raw_holes)

    def test_deep_wall_void_cascade(self):
        # identical squares stack at the wall; every band becomes its own
        # hole under a virtual copy of the square beside it
        seq = items("11/20", "11/20", "11/20")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert ana.ok
        virtual = [h for h in ana.holes if h.lid_virtual is not None]
        assert len(virtual) == 2
        owners = {h.lid_virtual.owner.item.index for h in virtual}
        assert owners == {2, 3}
        for h in ana.holes:
            assert hole_area_bound(h) >= h.area

    def test_copy_uniqueness_is_enforced(self):
        for seed in range(40):
            seq = random_items(seed, 10)
            ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
            owners = [h.lid_virtual.owner.item.index
                      for h in ana.holes if h.lid_virtual is not None]
            assert len(owners) == len(set(owners))


class TestWallHoles:
    def test_left_wall_charges(self):
        closed = close_packing(packing_of([("1/4", "1/4", 0)]))
        holes = extract_holes(closed)
        left = next(h for h in holes if h.kind == KIND_LEFT_WALL)
        terms = compute_charges([left]).terms
        assert [(t.square_index, t.side, t.coeff) for t in terms] == \
            [(2, "bottom", F(1)), (1, "left", F(1, 2))]
        assert left.area == F(1, 16)
        assert hole_area_bound(left) == F(1, 16) + F(1, 32)

    def test_right_wall_charges(self):
        closed = close_packing(packing_of([("1/4", "1/4", 0)]))
        holes = extract_holes(closed)
        right = next(h for h in holes if h.kind == KIND_RIGHT_WALL)
        terms = compute_charges([right]).terms
        assert [(t.square_index, t.side, t.coeff) for t in terms] == \
            [(2, "bottom", F(1)), (1, "right", F(1, 2))]

    def test_ground_rows_have_no_wall_holes(self):
        p = pack(BottomLeftState, items("1/2", "1/2"))
        assert extract_holes(close_packing(p)) == []


class TestCharges:
    def test_no_holes_no_charges(self):
        ledger = compute_charges([])
        assert ledger.terms == []

    def test_type_one_charges(self):
        p = packing_of([("2/5", 0, 0), ("2/5", "3/5", 0), (1, 0, "2/5")])
        hole = extract_holes(p)[0]
        ledger = compute_charges(split_hole(hole))
        assert ledger.side_charge(3, "bottom") == 1     # lid
        assert ledger.side_charge(1, "right") == F(1, 2)
        assert ledger.total_charge(3) == 1

    def test_virtual_owner_bottom_three_halves(self):
        seq = items("15/16", "3/16", "9/16", "7/8", "3/8", "1/8", "1/8")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        led = ana.ledger
        assert led.side_charge(4, "bottom") == 1
        assert led.side_charge(4, "bottom", virtual=True) == F(1, 2)
        assert led.side_charge(4, "bottom") + \
            led.side_charge(4, "bottom", virtual=True) == F(3, 2)


class TestOverhangTypeTwo:
    def test_all_four_segments_charged(self):
        # interior hole under an overhanging square: all four boundary
        # segments of the bound are positive (found by seeded search)
        import random
        rng = random.Random(50_012)
        n = rng.randint(6, 16)
        seq = [SquareItem(i, F(rng.randint(2 ** 16, 2 ** 20), 2 ** 20))
               for i in range(1, n + 1)]
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert ana.ok
        fig4 = None
        from strippack.holes import _charge_items
        for h in ana.holes:
            if h.kind != KIND_INTERIOR or h.lid_virtual is not None:
                continue
            if h.classify() != TYPE_II:
                continue
            terms = _charge_items(h)
            if len(terms) == 4 and all(t.segment > 0 for t in terms):
                fig4 = (h, terms)
        assert fig4 is not None
        h, terms = fig4
        assert [t.side for t in terms] == ["bottom", "right", "bottom", "left"]
        assert [t.coeff for t in terms] == [1, F(1, 2), 1, F(1, 2)]
        assert h.area <= sum(t.bound_part for t in terms)


class TestRegionConsistency:
    def test_rect_decomposition_matches_cells(self):
        seq = items("7/8", 1, "1/2", "1/8", "3/8", "5/8")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        for h in ana.raw_holes + ana.holes:
            region = h.region()
            assert region.area == h.area
            rects = region.rects
            for i, a in enumerate(rects):
                for b in rects[i + 1:]:
                    assert not a.interior_overlaps(b)


class TestIdentityAndInvariants:
    def test_height_identity_exact(self):
        for seed in range(20):
            seq = random_items(700 + seed, 12)
            p = pack(BottomLeftState, seq)
            ana = run_bottomleft_analysis(p)
            area = sum(it.side ** 2 for it in seq)
            assert p.height == area + ana.hole_sum()

    def test_all_checks_pass_on_random_instances(self):
        for seed in range(25):
            seq = random_items(800 + seed, 14)
            ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
            assert ana.ok, ana.report()

    def test_report_format(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        ana = run_bottomleft_analysis(p)
        text = ana.report()
        assert "CHECK height-identity PASS" in text
        assert "CHECK max-charge PASS" in text


def _below_cut(cells, throat, j_top):
    """Reference flood fill: the cells under row ``j_top`` connected to the
    throat without crossing it."""
    below, stack = set(throat), list(throat)
    while stack:
        i, j = stack.pop()
        for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if cell[1] < j_top and cell not in below and cell in cells:
                below.add(cell)
                stack.append(cell)
    return below


def _assert_same_hole(got, want):
    assert got.cells == want.cells
    assert got.cycle == want.cycle
    assert [(r.owner, r.points, r.side_lengths) for r in got.runs] == \
        [(r.owner, r.points, r.side_lengths) for r in want.runs]
    assert (got.area, got.area_units, got.P, got.Q, got.kind) == \
        (want.area, want.area_units, want.P, want.Q, want.kind)
    assert got.lid_virtual is want.lid_virtual


class TestIncrementalCarve:
    def test_pieces_match_from_scratch(self, monkeypatch):
        """Every carve's two pieces, one of them derived from the parent's
        boundary, equal holes traced from scratch on the reference split."""
        carve = holes._carve
        seen = {"carves": 0, "below_smaller": 0, "rest_smaller": 0}

        def checked(hole, lid):
            ctx, cells, overrides = hole.ctx, hole.cells, dict(hole.overrides)
            star, remainder = carve(hole, lid)
            grid = ctx.grid
            j_top = grid.yi[lid.level]
            cut = range(grid.xi[lid.mn_left], grid.xi[lid.mn_right])
            throat = [(i, j_top - 1) for i in cut if (i, j_top - 1) in cells]
            below = _below_cut(cells, throat, j_top)
            rest = cells - below
            over_star, over_rest = dict(overrides), dict(overrides)
            for i in cut:
                over_star[(i, j_top)] = ("copy", lid)
                over_rest[(i, j_top)] = OWNER_SEAM
            _assert_same_hole(star, Hole(ctx, frozenset(below), over_star,
                                         lid_virtual=lid))
            if rest:
                _assert_same_hole(remainder, Hole(ctx, frozenset(rest), over_rest,
                                                  lid_virtual=hole.lid_virtual))
            else:
                assert remainder is None
            seen["carves"] += 1
            seen["below_smaller" if len(below) < len(rest)
                 else "rest_smaller"] += 1
            return star, remainder

        monkeypatch.setattr(holes, "_carve", checked)
        for seq in LARGE_PANEL + [corpus_items(s) for s in range(50)]:
            run_bottomleft_analysis(pack(BottomLeftState, seq))
        # both pieces get derived on these instances
        assert seen["below_smaller"] > 0 and seen["rest_smaller"] > 0
        assert seen["carves"] > 1000

    # Synthetic cuts at row 1 over column 0: the throat is (0, 0), the part
    # above the cut starts at (0, 1), and a 10 x 5 block lies under the cut.
    BLOCK = {(i, j) for i in range(10) for j in range(-4, 1)}
    NOT_A_SIDE = {
        # the part above runs around the cut into the throat
        "around": BLOCK | {(0, 1), (1, 1)},
        # a cell over the block is cut off from the part above
        "over": BLOCK | {(0, 1), (5, 1)},
        # the block has a pinch vertex at (4, -3), so its boundary is not
        # a simple cycle
        "pinch": (BLOCK - {(3, -4), (4, -3)}) | {(0, 1)},
    }

    @pytest.mark.parametrize("case", sorted(NOT_A_SIDE))
    def test_side_found_first_falls_back_to_flood(self, case):
        cells = frozenset(self.NOT_A_SIDE[case])
        hole = SimpleNamespace(cells=cells, cycle=trace_boundary(cells))
        below, above, star_cycle = holes._sides_of_cut(
            hole, [(0, 0)], 1, 0, 1)
        assert (above, star_cycle) == (None, None)
        assert below == _below_cut(cells, [(0, 0)], 1)

    def test_part_above_found_first(self):
        cells = frozenset(self.BLOCK | {(0, 1), (0, 2), (1, 2)})
        hole = SimpleNamespace(cells=cells, cycle=trace_boundary(cells))
        below, above, star_cycle = holes._sides_of_cut(
            hole, [(0, 0)], 1, 0, 1)
        assert below is None
        assert above == {(0, 1), (0, 2), (1, 2)}
        assert star_cycle == trace_boundary(self.BLOCK)


class TestGoldenReports:
    @pytest.mark.parametrize("idx", range(len(LARGE_PANEL)))
    def test_large_panel_reports(self, idx):
        p = pack(BottomLeftState, LARGE_PANEL[idx])
        report = run_bottomleft_analysis(p).report()
        assert _sha256(report) == LARGE_REPORT_SHA256[idx]

    @pytest.mark.parametrize("seed", range(len(NONDYADIC_REPORT_SHA256)))
    def test_nondyadic_reports(self, seed):
        ana = run_bottomleft_analysis(pack(BottomLeftState,
                                           nondyadic_items(seed)))
        assert ana.closed.lattice()[0] % 2 == 1
        assert any(h.lid_virtual is not None for h in ana.holes)
        assert _sha256(ana.report()) == NONDYADIC_REPORT_SHA256[seed]

    @pytest.mark.parametrize("name", sorted(SVG_SHA256))
    def test_hole_overlay_svg(self, name):
        seq = LARGE_PANEL[0] if name == "large:0" else nondyadic_items(0)
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert _sha256(render_svg(ana.closed, ana.holes)) == SVG_SHA256[name]
