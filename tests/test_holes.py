import gc
import hashlib
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (assert_grows_linearly, corpus_items, items,
                      nondyadic_items, packing_of, random_items)
import grid_reference
from grid_reference import GridError, grid as _grid, trace_boundary
from strippack import cli as cli_module, holes
from strippack.bottomleft import BottomLeftState
from strippack.cli import main
from strippack.geometry import (GROUND, LEFT_WALL, RIGHT_WALL, SEAM,
                                ObstacleGrid, Rect,
                                trace_boundary as sweep_trace)
from strippack.harness import instance_text, render_svg
from strippack.holes import (KIND_INTERIOR, KIND_LEFT_WALL, KIND_RIGHT_WALL,
                             SIDE_BOTTOM, SIDE_LEFT, SIDE_RIGHT, SIDE_TOP,
                             TYPE_I, TYPE_II, ChargeLedger, ChargeTerm, Hole,
                             VirtualLid, compute_charges, extract_holes,
                             _charge_items, _twice_bound, hole_area_bound,
                             run_bottomleft_analysis, split_hole)
from strippack.packing import (Check, Packing, PackingError, SquareItem,
                               close_packing, pack)
from test_families import FAMILIES, family_items

# the large-workload panel: 100 sides randint(2^14, 2^20) / 2^20
LARGE_PANEL = [random_items(f"large:{i}", 100) for i in range(3)]
# sha256 of run_bottomleft_analysis(pack(BottomLeftState, seq)).report() on
# the panel, as computed by the cell-by-cell Fraction implementation
LARGE_REPORT_SHA256 = [
    "4a744676e8ec040b96eea326ca567862c2ec93e2938fee539bda14359f8e1e1c",
    "0a41cd1c98743b8a73ccd5553415ef3b4e7c77e074cb941e476f5b652db6dd7d",
    "a38450ccc63035c2431d25bb195efc6cce837aa8f64a525e446ffd6f23b973de",
]


# sha256 of the report on nondyadic_items(0..2), computed on the Fraction
# grid before hole analysis moved to the packing's lattice
NONDYADIC_REPORT_SHA256 = [
    "2c61f8bc91195f2813c696928c5ab1a32f2eddaca56ed4728402cd63c38bc9ca",
    "463e308520690ad157cafb967bc86f87ad3ac57d4c7c30f3308e405cf60433cf",
    "e475fe9a4dbbbfe7f005da3f2e4820442177f8c74a4f156ec4e0f4358b66f91c",
]
# sha256 of the report on random_items("ladder:1:480", 480), computed by
# the splice that walked the parent's whole boundary on every carve
LADDER_480_REPORT_SHA256 = \
    "576918dfb6ec9c2a72a7f374d1f9f0a71b56288c36edcbfa8f75d5e7b7a0c85a"
# sha256 of render_svg(closed, holes) with the hole overlay, computed the
# same way: LARGE_PANEL[0] and nondyadic_items(0)
SVG_SHA256 = {
    "large:0": "fec85b7e2392a263ac2cb14581bbc83fb5c77fde39f8a21a35f308f8d774cf8a",
    "nondyadic:0":
        "1c3ba8382faab7a8b6b290721e95cde0da74da1eb7fab5a131d1aade4b7eface",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestClosePacking:
    def test_empty(self):
        closed = close_packing(Packing())
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
        assert h.runs[0].owner == 3
        assert len([r for r in h.runs if r.owner >= 0]) == 3

    def test_ground_gap_u_shape(self):
        p = packing_of([("2/5", 0, 0), ("2/5", "3/5", 0), (1, 0, "2/5")])
        holes = extract_holes(p)
        assert len(holes) == 1
        h = holes[0]
        assert h.kind == KIND_INTERIOR
        assert h.area == F(2, 25)
        assert len([r for r in h.runs if r.owner >= 0]) == 3
        assert h.classify() == TYPE_I

    def test_flush_stack_is_type_two(self):
        # the last boundary square rests on the previous one (corner entry)
        seq = items("1/2", "1/16", "9/16", "3/8", "3/8", "15/16")
        holes = extract_holes(close_packing(pack(BottomLeftState, seq)))
        interior = [h for h in holes if h.kind == KIND_INTERIOR]
        assert len(interior) == 1
        assert interior[0].classify() == TYPE_II
        assert interior[0].area == F(7, 256)


class TestCornerContact:
    """The last square of an interior hole touches the one before it only
    at a corner: the previous top-right corner is its bottom-left one.
    BottomLeft builds this on coarse grids, and ``classify`` reads it as
    Type I; it used to raise ``lemma3`` on valid packings."""

    # shrunk by greedy deletion from Random(42)'s 40 sides randint(1, 32)/64
    SIDES = ("1/8", "1/32", "9/32", "1/4", "15/64", "9/64", "7/64", "3/32",
             "7/16", "3/32", "7/32", "15/64", "1/32")

    def test_analyze_prints_a_full_report(self, tmp_path, capsys):
        inst = tmp_path / "corner.txt"
        inst.write_text("\n".join(self.SIDES) + "\n")
        assert main(["analyze", "--strategy", "bottomleft",
                     "--input", str(inst)]) == 0
        checks = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("CHECK")]
        assert len(checks) == 7
        assert all(ln.split()[2] == "PASS" for ln in checks)

    def test_the_corner_hole_is_type_one(self):
        # on the lattice of scale 64 the hole is [51, 57] x [21, 22]: lid
        # square 12, left square 7, floor square 8, and square 13, which
        # rests on square 10 and meets square 8 at (57, 21)
        ana = run_bottomleft_analysis(pack(BottomLeftState, items(*self.SIDES)))
        assert ana.ok
        (hole,) = [h for h in ana.holes if h.runs[-1].owner == 12]
        assert [r.owner for r in hole.runs] == [11, 6, 7, 12]
        _, pr, _, pt = hole.runs[-2].rect(hole.ctx)
        l, _, b, _ = hole.runs[-1].rect(hole.ctx)
        assert (pr, pt) == (l, b) == (57, 21)
        assert hole.kind == KIND_INTERIOR and hole.classify() == TYPE_I
        assert hole.area == F(6, 64 * 64)


# ---------------------------------------------------------------------------
# the sweep over gap rects against the dense-grid reference
# ---------------------------------------------------------------------------

SWEEP_PANELS = {
    "corpus": lambda: [corpus_items(s) for s in range(50)],
    "large": lambda: LARGE_PANEL,
    "nondyadic": lambda: [nondyadic_items(s) for s in range(3)],
    "ladder480": lambda: [random_items("ladder:1:480", 480)],
    "families": lambda: [family_items(f, s) for f in sorted(FAMILIES)
                         for s in range(5)],
}


def _same_raw_hole(got, want):
    """Equal runs (owners and corners, the lid first), corner counts,
    area, kind, lid and slab rects."""
    assert [(r.owner, r.points) for r in got.runs] == \
        [(r.owner, r.points) for r in want.runs]
    assert got.corners == want.corners
    assert (got.area_units, got.area, got.kind, got.lid_virtual) == \
        (want.area_units, want.area, want.kind, want.lid_virtual)
    assert got.region() == want.region()


def _pieces(closed):
    """The boundary pieces of a closed packing's free space, on its lattice,
    as extraction builds them."""
    scale, rects = closed.lattice()
    return ObstacleGrid(rects, scale, max(t for *_, t in rects))


def _disjoint_squares(w, seed, tries=12):
    """Up to ``tries`` disjoint squares with sides and corners in 1/w,
    dropped at random on [0, 1]^2 where they fit, under a side-1 lid."""
    rng = random.Random(f"disjoint:{w}:{seed}")
    rects = []
    for _ in range(tries):
        s = rng.randint(1, w // 2)
        l, b = rng.randint(0, w - s), rng.randint(0, w - s)
        if all(r <= l or l + s <= ol or t <= b or b + s <= ob
               for ol, r, ob, t in rects):
            rects.append((l, l + s, b, b + s))
    return close_packing(packing_of([(F(r - l, w), F(l, w), F(b, w))
                                     for l, r, b, _ in rects]))


class TestSweepAgainstGrid:
    @pytest.mark.parametrize("panel", sorted(SWEEP_PANELS))
    def test_raw_holes_equal_the_grid_reference(self, panel):
        """Every raw hole extraction finds equals, in order, the hole the
        dense grid's flood and unit-edge trace find."""
        count = 0
        for seq in SWEEP_PANELS[panel]():
            closed = close_packing(pack(BottomLeftState, seq))
            got = extract_holes(closed)
            want = grid_reference.extract_holes(closed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _same_raw_hole(g, w)
            count += len(got)
        assert count > 0

    @pytest.mark.parametrize("w", [4, 6, 8])
    def test_any_disjoint_squares_match_the_grid_reference(self, w):
        """Disjoint squares that no strategy placed make islands and holes
        that meet both walls, which BottomLeft never does: extraction
        returns the reference's holes wherever it returns any, and raises
        wherever it raises.  An island raises GridError on the grid
        and ``boundary`` here, found before any hole is built, so it may
        also take the place of a hole's own fault."""
        outcomes = Counter()
        for seed in range(1000):
            closed = _disjoint_squares(w, seed)
            try:
                want = grid_reference.extract_holes(closed)
            except (GridError, holes.AnalysisError) as exc:
                with pytest.raises(holes.AnalysisError) as err:
                    extract_holes(closed)
                assert err.value.name in {getattr(exc, "name", None),
                                          "boundary"}
                if isinstance(exc, GridError):
                    assert err.value.name == "boundary"
                outcomes["rejected"] += 1
                continue
            got = extract_holes(closed)
            assert len(got) == len(want)
            for g, h in zip(got, want):
                _same_raw_hole(g, h)
            outcomes["accepted"] += 1
        assert outcomes["accepted"] > 50 and outcomes["rejected"] > 50


class TestSweepTraps:
    """Hand-built closed packings on a lattice of scale 4 (sides in
    quarters), each at a place where boundary pieces and a flood can
    disagree."""

    def test_wall_holes_stay_apart(self):
        """Three holes on the left wall, between squares on the wall, stay
        three holes: the squares' left sides cover the wall between them,
        so the wall's uncovered parts are three pieces, one per hole."""
        closed = packing_of([("1/4", 0, "1/4"), ("1/4", 0, "3/4"),
                             ("3/4", "1/4", 0), ("1/2", "1/4", "3/4"),
                             ("1/4", "3/4", "3/4"), ("1/4", "3/4", 1),
                             (1, 0, "5/4")])
        raw = extract_holes(closed)
        assert [(h.kind, h.area) for h in raw] == [(KIND_LEFT_WALL, F(1, 16))] * 3
        assert [h.runs[0].owner for h in raw] == [0, 1, 6]
        for got, want in zip(raw, grid_reference.extract_holes(closed)):
            _same_raw_hole(got, want)

    def test_pinch_vertex_turns_left_and_counts_twice(self):
        """A ring around a square, pinched where that square's corner meets
        the corner of the one at its upper right: the walk reaches the pinch
        along the upper square's bottom, turns left around the ring's inner
        square, and leaves up the upper square's left side, so the pinch is
        a corner twice.  The upper square then bounds the hole twice, which
        Lemma 1 rules out, on the grid as in the sweep."""
        closed = packing_of([("1/4", "1/4", "1/4"), ("1/4", "1/2", "1/2"),
                             ("1/4", "3/4", 0), ("1/4", "3/4", "1/4"),
                             ("1/4", "3/4", "1/2"), (1, 0, "3/4")])
        comps = _pieces(closed).free_components()
        assert len(comps) == 1
        runs = sweep_trace(comps[0])
        assert runs == [
            (GROUND, [(0, 0), (3, 0)]), (2, [(3, 0), (3, 1)]),
            (3, [(3, 1), (3, 2)]), (1, [(3, 2), (2, 2)]),
            (0, [(2, 2), (2, 1), (1, 1), (1, 2), (2, 2)]),
            (1, [(2, 2), (2, 3)]), (5, [(2, 3), (0, 3)]),
            (LEFT_WALL, [(0, 3), (0, 0)])]
        corners = Counter(q for _, points in runs for q in points[1:])
        assert corners[(2, 2)] == 2
        assert set(corners.values()) == {1, 2}
        for extract in (extract_holes, grid_reference.extract_holes):
            with pytest.raises(holes.AnalysisError) as err:
                extract(closed)
            assert str(err.value) == ("lemma1: square 2 contributes twice, "
                                      "in the hole under square 6")

    def test_hole_on_both_walls_names_its_lid(self):
        """A hole that meets both walls is named by the run before the left
        wall, where a left-wall hole's lid is."""
        for extract in (extract_holes, grid_reference.extract_holes):
            with pytest.raises(holes.AnalysisError) as err:
                extract(packing_of([(1, 0, "1/4")]))
            assert str(err.value) == ("two-walls: hole touches both strip "
                                      "walls, in the hole under square 1")

    def test_gap_continues_where_its_owners_change(self):
        """Squares end beside a hole where others of the same height start,
        below it and above it: the hole's bottom and top change owner there,
        and each square's side is a run of its own."""
        closed = packing_of([("1/4", 0, 0), ("1/4", "1/4", 0), ("1/2", "1/2", 0),
                             ("1/4", 0, "1/2"), ("1/4", "1/4", "1/2"),
                             ("1/4", "1/2", "1/2"), ("1/4", "3/4", "1/2"),
                             (1, 0, "3/4")])
        hole, = extract_holes(closed)
        assert [(r.owner, r.points) for r in hole.runs] == [
            (3, ((1, 2), (0, 2))), (LEFT_WALL, ((0, 2), (0, 1))),
            (0, ((0, 1), (1, 1))), (1, ((1, 1), (2, 1))),
            (2, ((2, 1), (2, 2))), (4, ((2, 2), (1, 2)))]
        _same_raw_hole(hole, *grid_reference.extract_holes(closed))


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
        raw = extract_holes(ana.closed)
        assert [str(h.area) for h in raw] == ["21/64", "7/64"]
        assert len(ana.holes) == 3
        virtual = [h for h in ana.holes if h.lid_virtual is not None]
        assert len(virtual) == 1
        assert virtual[0].lid_virtual.owner.index == 6
        assert virtual[0].area == F(3, 32)
        assert sum(h.area for h in ana.holes) == sum(h.area for h in raw)

    def test_deep_wall_void_cascade(self):
        # identical squares stack at the wall; every band becomes its own
        # hole under a virtual copy of the square beside it
        seq = items("11/20", "11/20", "11/20")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert ana.ok
        virtual = [h for h in ana.holes if h.lid_virtual is not None]
        assert len(virtual) == 2
        owners = {h.lid_virtual.owner.index for h in virtual}
        assert owners == {2, 3}
        for h in ana.holes:
            assert hole_area_bound(h, _twice_bound(_charge_items(h))) >= h.area

    def test_copy_uniqueness_is_enforced(self):
        for seed in range(40):
            seq = random_items(seed, 10)
            ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
            owners = [h.lid_virtual.owner.index
                      for h in ana.holes if h.lid_virtual is not None]
            assert len(owners) == len(set(owners))


class TestWallHoles:
    def test_left_wall_charges(self):
        closed = close_packing(packing_of([("1/4", "1/4", 0)]))
        holes = extract_holes(closed)
        left = next(h for h in holes if h.kind == KIND_LEFT_WALL)
        terms = _charge_items(left)
        assert [(t.square_index, t.side, t.halves) for t in terms] == \
            [(2, "bottom", 2), (1, "left", 1)]
        assert compute_charges([terms]).sides == \
            {(2, "bottom", False): 2, (1, "left", False): 1}
        assert left.area == F(1, 16)
        assert hole_area_bound(left, _twice_bound(terms)) == \
            F(1, 16) + F(1, 32)

    def test_right_wall_charges(self):
        closed = close_packing(packing_of([("1/4", "1/4", 0)]))
        holes = extract_holes(closed)
        right = next(h for h in holes if h.kind == KIND_RIGHT_WALL)
        terms = _charge_items(right)
        assert [(t.square_index, t.side, t.halves) for t in terms] == \
            [(2, "bottom", 2), (1, "right", 1)]
        assert compute_charges([terms]).sides == \
            {(2, "bottom", False): 2, (1, "right", False): 1}

    def test_ground_rows_have_no_wall_holes(self):
        p = pack(BottomLeftState, items("1/2", "1/2"))
        assert extract_holes(close_packing(p)) == []


class TestCharges:
    def test_no_holes_no_charges(self):
        ledger = compute_charges([])
        assert ledger.sides == {} and ledger.halves == {}

    def test_type_one_charges(self):
        p = packing_of([("2/5", 0, 0), ("2/5", "3/5", 0), (1, 0, "2/5")])
        hole = extract_holes(p)[0]
        ledger = compute_charges([_charge_items(h) for h in split_hole(hole)])
        assert ledger.sides[(3, "bottom", False)] == 2     # lid
        assert ledger.sides[(1, "right", False)] == 1
        assert ledger.halves.get(3, 0) == 2

    def test_running_totals_equal_key_scan(self):
        for seed in range(20):
            ana = run_bottomleft_analysis(
                pack(BottomLeftState, corpus_items(seed)))
            sides = ana.ledger.sides
            for pl in ana.closed.placements:
                idx = pl.item.index
                assert ana.ledger.halves.get(idx, 0) == sum(
                    h for (i, _, _), h in sides.items() if i == idx)

    def test_virtual_owner_bottom_three_halves(self):
        seq = items("15/16", "3/16", "9/16", "7/8", "3/8", "1/8", "1/8")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        sides = ana.ledger.sides
        assert sides[(4, "bottom", False)] == 2
        assert sides[(4, "bottom", True)] == 1
        assert sides[(4, "bottom", False)] + sides[(4, "bottom", True)] == 3

    def test_virtual_lid_bottom_counts_in_full_in_the_bound(self):
        # the copy's bottom enters the hole's own bound in full and the
        # owner's ledger with 1/2
        seq = items("7/8", 1, "1/2", "1/8", "3/8", "5/8")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        hole, = (h for h in ana.holes if h.lid_virtual is not None)
        terms = _charge_items(hole)
        lid, s = terms[0], hole.ctx.scale
        assert (lid.square_index, lid.side, lid.virtual) == (6, "bottom", True)
        assert lid.segment > 0
        assert hole_area_bound(hole, _twice_bound(terms)) == \
            F(lid.segment, s) ** 2 + _reference_bound(hole, terms[1:])
        assert lid.halves == 1
        assert ana.ledger.sides[(6, "bottom", True)] == 1


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
        assert [t.halves for t in terms] == [2, 1, 2, 1]
        assert h.area <= _reference_bound(h, terms)


# ---------------------------------------------------------------------------
# the Fraction route: the reference for the lattice bound and ledger
# ---------------------------------------------------------------------------

def _reference_bound(hole, terms):
    """A hole's bound as the Fraction route summed it: each term's ledger
    coefficient times its squared segment in strip units, a virtual lid's
    bottom counting in full."""
    s = hole.ctx.scale
    return sum(((F(1) if t.virtual else F(t.halves, 2)) * F(t.segment, s) ** 2
                for t in terms), F(0))


class _ReferenceLedger:
    """The ledger term by term, as Fractions: a term that raises its side's
    maximum coefficient adds the rise to its square's running total."""

    def __init__(self):
        self.max_coeff, self.totals = {}, {}

    def add(self, terms):
        for t in terms:
            key, coeff = (t.square_index, t.side, t.virtual), F(t.halves, 2)
            old = self.max_coeff.get(key, F(0))
            if old < coeff:
                self.max_coeff[key] = coeff
                self.totals[t.square_index] = (
                    self.totals.get(t.square_index, F(0)) + coeff - old)


class TestLatticeCharges:
    @pytest.mark.parametrize("panel", sorted(SWEEP_PANELS))
    def test_bounds_and_ledger_equal_the_fraction_route(self, panel):
        """Every final hole's bound, from twice the bound on the lattice,
        equals the Fraction sum of its terms; the ledger's sides and
        weights (in key order) and totals equal the term-by-term ledger's
        maxima and totals."""
        count = 0
        for seq in SWEEP_PANELS[panel]():
            ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
            ref = _ReferenceLedger()
            for h, bound in zip(ana.holes, ana.bounds):
                terms = _charge_items(h)
                assert bound == _reference_bound(h, terms)
                ref.add(terms)
            assert [(key, F(h, 2)) for key, h in ana.ledger.sides.items()] \
                == list(ref.max_coeff.items())
            assert [(idx, F(h, 2)) for idx, h in ana.ledger.halves.items()] \
                == list(ref.totals.items())
            count += len(ana.holes)
        assert count > 0

    def test_terms_built_once_per_final_hole(self, monkeypatch):
        """The bound and the ledger read the same terms: each final hole's
        are built once."""
        charge_items = holes._charge_items
        built = Counter()

        def counted(hole):
            built[id(hole)] += 1
            return charge_items(hole)

        monkeypatch.setattr(holes, "_charge_items", counted)
        for seq in LARGE_PANEL + [nondyadic_items(0)]:
            built.clear()
            ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
            assert built == Counter(id(h) for h in ana.holes)

    @pytest.mark.parametrize("panel", sorted(SWEEP_PANELS))
    def test_terms_charge_a_bottom_or_a_side(self, panel):
        """Every charge term of every final hole is on a bottom, a left or
        a right side, and only a bottom is a copy's: so each square has at
        most four charged sides, 1 + 3 * 1/2 = 5/2 in all."""
        seen = Counter()
        for seq in SWEEP_PANELS[panel]():
            ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
            for h in ana.holes:
                for t in _charge_items(h):
                    assert t.side in (SIDE_BOTTOM, SIDE_LEFT, SIDE_RIGHT)
                    assert t.side == SIDE_BOTTOM or not t.virtual
                    seen[t.side, t.virtual] += 1
        assert len(seen) == 4           # each of the four charged sides


class TestWallsFromTheRing:
    @pytest.mark.parametrize("panel", sorted(SWEEP_PANELS))
    def test_walls_next_to_the_lid_equal_a_ring_scan(self, panel):
        """Every raw and every final hole touches the left or the right
        wall, as read from the runs next to its lid, exactly where a run
        of its ring is that wall."""
        kinds = Counter()
        for seq in SWEEP_PANELS[panel]():
            raw = extract_holes(close_packing(pack(BottomLeftState, seq)))
            # the raw holes are read before the splits change them
            for stage in (raw, [h for r in raw for h in split_hole(r)]):
                for h in stage:
                    owners = {run.owner for run in h.runs}
                    assert (h.touches_left, h.touches_right) == \
                        (LEFT_WALL in owners, RIGHT_WALL in owners)
                    kinds[h.kind] += 1
        assert all(kinds[kind] > 0 for kind in (
            KIND_INTERIOR, KIND_LEFT_WALL, KIND_RIGHT_WALL))


class TestRegionConsistency:
    def test_rect_decomposition_matches_cells(self):
        seq = items("7/8", 1, "1/2", "1/8", "3/8", "5/8")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        for h in extract_holes(ana.closed) + ana.holes:
            rects = h.region()
            assert sum(r.width * r.height for r in rects) == h.area
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
            raw = extract_holes(ana.closed)
            assert p.height == area + sum(h.area for h in raw)

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


# ---------------------------------------------------------------------------
# the cell route: a from-scratch reference for every piece of a carve
# ---------------------------------------------------------------------------

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


def _cell_runs(grid, cells, overrides):
    """Runs of the traced boundary of a cell set, as lattice corners.  A unit
    edge's owner is its carve override, keyed by the cut edge's left end,
    else the square, ground or wall on its right."""
    X, Y = grid.xs, grid.ys
    runs = []
    for (i1, j1), (i2, j2) in trace_boundary(cells):
        if j1 == j2:
            key = (min(i1, i2), j1)
            if key in overrides:
                owner = overrides[key]
            elif i2 > i1:
                owner = GROUND if j1 == 0 else grid.owner[i1][j1 - 1]
            else:
                owner = grid.owner[i2][j1]
        elif j2 > j1:
            owner = RIGHT_WALL if i1 == grid.nx else grid.owner[i1][j1]
        else:
            owner = LEFT_WALL if i1 == 0 else grid.owner[i1 - 1][j2]
        assert owner is not None, "free cell outside the hole"
        if runs and runs[-1][0] == owner:
            runs[-1][1].append((X[i2], Y[j2]))
        else:
            runs.append((owner, [(X[i1], Y[j1]), (X[i2], Y[j2])]))
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[-1][1].extend(runs[0][1][1:])
        runs[0] = runs.pop()
    return [holes._Run(owner, _corners(points)) for owner, points in runs]


def _corners(points):
    """The two ends of a path and the points where it turns."""
    turns = [q for p, q, r in zip(points, points[1:], points[2:])
             if not (p[0] == q[0] == r[0] or p[1] == q[1] == r[1])]
    return (points[0], *turns, points[-1])


def _cell_rects(grid, s, cells):
    """Vertical-slab decomposition of a cell set in strip coordinates (the
    lattice scaled down by ``s``): maximal vertical runs per grid column,
    equal neighbouring columns fused, sorted by left then bottom."""
    X, Y = grid.xs, grid.ys
    cols = {}
    for i, j in sorted(cells):
        runs = cols.setdefault(i, [])
        if runs and runs[-1][1] == j:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1])
    slabs = []                          # [first column, last column, runs]
    for i, runs in sorted(cols.items()):
        if slabs and slabs[-1][1] == i - 1 and slabs[-1][2] == runs:
            slabs[-1][1] = i
        else:
            slabs.append([i, i, runs])
    rects = [Rect(F(X[i0], s), F(X[i1 + 1], s), F(Y[j0], s), F(Y[j1], s))
             for i0, i1, runs in slabs for j0, j1 in runs]
    return tuple(sorted(rects, key=lambda r: (r.left, r.bottom)))


def _assert_cell_route(got, grid, cells, overrides, lid_virtual):
    """``got`` equals the hole the cell route builds from ``cells`` on
    ``grid``.  Side lengths follow from the owners and corners compared
    here (``TestReferenceRoutes`` checks them)."""
    ctx = got.ctx
    X, Y = grid.xs, grid.ys
    area = sum((X[i + 1] - X[i]) * (Y[j + 1] - Y[j]) for i, j in cells)
    want = Hole(ctx, _cell_runs(grid, cells, overrides), area, lid_virtual)
    assert [(r.owner, r.points) for r in got.runs] == \
        [(r.owner, r.points) for r in want.runs]
    assert (got.area, got.area_units, got.kind) == \
        (want.area, want.area_units, want.kind)
    assert got.lid_virtual is want.lid_virtual
    assert got.region() == _cell_rects(grid, ctx.scale, cells)


class TestIncrementalCarve:
    def test_pieces_match_from_scratch(self, monkeypatch):
        """Every raw hole and both pieces of every carve, spliced from the
        parent's corners, equal the holes the cell route traces from
        scratch: the flood below the cut, the traced boundary with carve
        overrides, the cell area and the slab rects of the cells."""
        extract, carve = holes.extract_holes, holes._carve
        known = {}                      # id(hole) -> (hole, cells, overrides)
        grids = {}                      # context -> its grid
        seen = Counter()

        def extracted(closed):
            raw = extract(closed)
            if raw:
                grid = grids[raw[0].ctx] = _grid(raw[0].ctx)
                comps = [c["cells"] for c in grid.free_components()
                         if c["bounded"]]
                assert len(comps) == len(raw)
                for hole, cells in zip(raw, comps):
                    _assert_cell_route(hole, grid, cells, {}, None)
                    known[id(hole)] = (hole, frozenset(cells), {})
            return raw

        def checked(hole, lid, at):
            _, cells, overrides = known.pop(id(hole))
            lid_virtual = hole.lid_virtual      # the carve may change it
            star, remainder = carve(hole, lid, at)
            grid = grids[hole.ctx]
            _, r, b, _ = lid.rect
            j_top = grid.yi[b]
            cut = range(grid.xi[lid.mn_left], grid.xi[r])
            throat = [(i, j_top - 1) for i in cut if (i, j_top - 1) in cells]
            below = frozenset(_below_cut(cells, throat, j_top))
            rest = cells - below
            over_star, over_rest = dict(overrides), dict(overrides)
            for i in cut:
                over_star[(i, j_top)] = lid
                over_rest[(i, j_top)] = SEAM
            _assert_cell_route(star, grid, below, over_star, lid)
            known[id(star)] = (star, below, over_star)
            if rest:
                _assert_cell_route(remainder, grid, rest, over_rest,
                                   lid_virtual)
                known[id(remainder)] = (remainder, rest, over_rest)
                roofed = any((i, j_top) not in cells for i in cut)
                seen["trimmed" if roofed else "untrimmed"] += 1
            else:
                assert remainder is None
            seen["carves"] += 1
            return star, remainder

        monkeypatch.setattr(holes, "extract_holes", extracted)
        monkeypatch.setattr(holes, "_carve", checked)
        for seq in (LARGE_PANEL + [nondyadic_items(s) for s in range(3)]
                    + [corpus_items(s) for s in range(50)]
                    + [family_items(f, s) for f in sorted(FAMILIES)
                       for s in range(10)]):
            run_bottomleft_analysis(pack(BottomLeftState, seq))
            grids.clear()
        assert seen["carves"] > 2000
        assert seen["trimmed"] > 0 and seen["untrimmed"] > 0


# ---------------------------------------------------------------------------
# the replaced routes: every side of every run, and the grid's owner lookup
# ---------------------------------------------------------------------------

def _measure_sides(ctx, run):
    """The reference for ``_side_length``: the four side lengths of a run's
    owner along it, on the lattice, or None for a ground, wall or seam
    run."""
    copy = isinstance(run.owner, VirtualLid)
    if copy:
        l = r = b = t = None
    elif run.owner >= 0:
        l, r, b, t = ctx.rects[run.owner]
    else:
        return None
    left = bottom = right = top = 0
    for (x1, y1), (x2, y2) in zip(run.points, run.points[1:]):
        if x1 == x2:
            length = abs(y2 - y1)
            if x1 == l:
                left += length
            elif x1 == r:
                right += length
            else:
                raise holes.AnalysisError("boundary", "edge off its owner's sides")
        else:
            length = abs(x2 - x1)
            # copies own only their cut line
            if copy or y1 == b:
                bottom += length
            elif y1 == t:
                top += length
            else:
                raise holes.AnalysisError("boundary", "edge off its owner's sides")
    return {SIDE_LEFT: left, SIDE_BOTTOM: bottom,
            SIDE_RIGHT: right, SIDE_TOP: top}


def crossings(hole, x, y) -> bool:
    """``Hole.contains`` by the crossing count alone, with no turn."""
    return hole.contains(x, y, None)


def _grid_enters_hole_southeast(grid, hole, x, y):
    """The reference for ``_enters_hole_southeast``, on the obstacle grid:
    the index of the square owning the cell northwest of (x, y) if the
    hole lies southeast of the point, else None."""
    X, Y = grid.xs, grid.ys
    iw = bisect_left(X, x) - 1                 # column just left of x
    jn = bisect_right(Y, y) - 1                # row just above y
    if not (0 <= iw < grid.nx and 0 <= jn < grid.ny):
        return None
    owner = grid.owner[iw][jn]
    if owner is None or not crossings(hole, x, y):
        return None
    return owner


class TestReferenceRoutes:
    def test_side_lengths_and_northwest_lookups(self, monkeypatch):
        """On every run of every raw hole and every piece, ``_side_length``
        equals the four-side measurement on all four sides, and every
        lookup of the square northwest of a point, read from the lattice
        index, equals the grid's."""
        extract, carve = holes.extract_holes, holes._carve
        enters = holes._enters_hole_southeast
        grids = {}      # keyed on the context itself: an id() is reused
        seen = Counter()

        def check_sides(hole):
            ctx = hole.ctx
            for run in hole.runs:
                want = _measure_sides(ctx, run)
                if want is not None:
                    assert {side: holes._side_length(hole, run, side)
                            for side in want} == want
                    seen["runs"] += 1
            seen["holes"] += 1

        def extracted(closed):
            raw = extract(closed)
            for hole in raw:
                check_sides(hole)
            return raw

        def carved(hole, lid, at):
            pieces = carve(hole, lid, at)
            for piece in pieces:
                if piece is not None:
                    check_sides(piece)
            return pieces

        def looked_up(hole, run, x, y, turn):
            ctx = hole.ctx
            if ctx not in grids:
                grids[ctx] = _grid(ctx)
            got = enters(hole, run, x, y, turn)
            want = _grid_enters_hole_southeast(grids[ctx], hole, x, y)
            assert got == (None if want is None else ctx.rects[want])
            seen["lookups"] += 1
            seen["found"] += got is not None
            return got

        monkeypatch.setattr(holes, "extract_holes", extracted)
        monkeypatch.setattr(holes, "_carve", carved)
        monkeypatch.setattr(holes, "_enters_hole_southeast", looked_up)
        for seq in (LARGE_PANEL + [nondyadic_items(s) for s in range(3)]
                    + [corpus_items(s) for s in range(50)]
                    + [family_items(f, s) for f in sorted(FAMILIES)
                       for s in range(50)]):
            run_bottomleft_analysis(pack(BottomLeftState, seq))
            grids.clear()
        assert seen["holes"] > 10000 and seen["runs"] > 100000
        assert 0 < seen["found"] < seen["lookups"]

    def test_northwest_lookup_at_every_corner(self):
        """The lattice lookup equals the grid's at every corner of every
        run of every raw hole, not only where a diagonal meets the
        boundary."""
        found = 0
        for seq in (LARGE_PANEL + [corpus_items(s) for s in range(50)]
                    + [family_items(f, s) for f in sorted(FAMILIES)
                       for s in range(10)]):
            raw = extract_holes(close_packing(pack(BottomLeftState, seq)))
            if raw:
                ctx = raw[0].ctx
                grid = _grid(ctx)
            for hole in raw:
                for run in hole.runs:
                    for x, y in run.points:
                        got = holes._enters_hole_southeast(hole, run, x,
                                                           y, None)
                        want = _grid_enters_hole_southeast(grid, hole, x, y)
                        assert got == (None if want is None
                                       else ctx.rects[want])
                        found += got is not None
        assert found > 0

    def test_edge_off_the_sides_names_the_owner(self):
        """An edge on none of its owner's sides fails loudly and names the
        owner; a copy's only side is its cut."""
        hole, lid, _ = _first_carve()
        ctx = hole.ctx
        run = next(r for r in hole.runs
                   if not isinstance(r.owner, VirtualLid) and r.owner >= 0)
        l, r, b, t = run.rect(ctx)
        square = f"square {ctx.items[run.owner].index}"
        cl, cr, cb, ct = lid.rect
        copy = f"the copy of square {lid.owner.index}"
        for points, owner, name in (
                ([(l - 1, b), (l - 1, t)], run.owner, square),
                ([(l, b - 1), (r, b - 1)], run.owner, square),
                ([(cl, cb), (cl, ct)], lid, copy),
                ([(cr, ct), (cl, ct)], lid, copy)):
            with pytest.raises(holes.AnalysisError) as err:
                holes._side_length(hole, holes._Run(owner, points), SIDE_LEFT)
            assert str(err.value) == (f"boundary: edge off the sides of "
                                      f"{name}, in the hole under square 7")


# ---------------------------------------------------------------------------
# the whole-ring splice: the reference for every piece of a carve
# ---------------------------------------------------------------------------

def _cut(runs, p):
    """Cut a chain of runs at the point p, which must lie on it once:
    returns the runs up to p and the runs from p."""
    x, y = p
    at = []
    for k, run in enumerate(runs):
        for s, ((x1, y1), (x2, y2)) in enumerate(zip(run.points,
                                                     run.points[1:])):
            if (x2, y2) != p and (min(x1, x2) <= x <= max(x1, x2)
                                  and min(y1, y2) <= y <= max(y1, y2)):
                at.append((k, s))
    if len(at) != 1:
        raise holes.AnalysisError(
            "split", f"cut end {p} on the boundary {len(at)} times")
    (k, s), = at
    owner, points = runs[k].owner, runs[k].points
    head = points[:s + 1] if points[s] == p else (*points[:s + 1], p)
    return (runs[:k] + ([holes._Run(owner, head)] if len(head) > 1 else []),
            [holes._Run(owner, (p, *points[s + 1:]))] + runs[k + 1:])


def _splice(hole, lid, at=None):
    """The pieces of a carve as the parent's whole ring cut at M and N
    gives them: the star's area from its own corners, every piece built
    from scratch, from copies of the parent's runs.  Reads the parent and
    changes nothing; ``at``, the run that holds M, is not read."""
    ctx = hole.ctx
    _, r, b, _ = lid.rect
    m, n = (lid.mn_left, b), (r, b)
    runs = [holes._Run(run.owner, run.points) for run in hole.runs]
    before_m, from_m = _cut(runs, m)
    to_n, from_n = _cut(from_m + before_m, n)
    star_runs = list(to_n)
    star_runs.append(holes._closed(star_runs[0], star_runs[-1], lid, n, m))
    star_area = holes._shoelace(star_runs)
    assert 0 < star_area <= hole.area_units
    star = Hole(ctx, star_runs, star_area, lid)
    if star_area == hole.area_units:
        return star, None
    rest = list(from_n)
    rest.append(holes._closed(rest[0], rest[-1], SEAM, m, n))
    return star, Hole(ctx, rest, hole.area_units - star_area, hole.lid_virtual)


def _same_piece(got, want):
    """Equal runs (owner and corners, lid first), area, lid and walls, and
    corner counts equal to a recount of the runs."""
    assert [(r.owner, r.points) for r in got.runs] == \
        [(r.owner, r.points) for r in want.runs]
    assert (got.area_units, got.area, got.lid_virtual) == \
        (want.area_units, want.area, want.lid_virtual)
    assert (got.touches_left, got.touches_right) == \
        (want.touches_left, want.touches_right)
    assert {p: c for p, c in got.corners.items() if c} == want.corners


class TestSpliceReference:
    def test_pieces_equal_the_whole_ring_splice(self, monkeypatch):
        """Both pieces of every carve, found by walking only the
        remainder, equal the splice of the parent's whole ring, run for
        run; and the star's corner counts, derived from the parent's,
        equal a recount of its runs."""
        carve = holes._carve
        seen = Counter()

        def checked(hole, lid, at):
            want = _splice(hole, lid)
            star, remainder = carve(hole, lid, at)
            _same_piece(star, want[0])
            if want[1] is None:
                assert remainder is None
            else:
                _same_piece(remainder, want[1])
                seen["remainder corners"] += sum(len(r.points) - 1
                                                 for r in remainder.runs)
            seen["carves"] += 1
            seen["star corners"] += sum(len(r.points) - 1 for r in star.runs)
            return star, remainder

        monkeypatch.setattr(holes, "_carve", checked)
        for seq in (LARGE_PANEL + [corpus_items(s) for s in range(50)]
                    + [family_items(f, s) for f in sorted(FAMILIES)
                       for s in range(10)]
                    + [random_items("ladder:1:480", 480)]):
            run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert seen["carves"] > 2000
        # the star keeps most of the parent: what is walked is small
        assert seen["star corners"] > 5 * seen["remainder corners"]


def _pinch_hole():
    """A hand-built hole through a pinch corner, and its packing.  On a
    lattice of scale 4 it is the two unit boxes [0, 1]^2 and [1, 2]^2,
    meeting at (1, 1), under the square [1, 2] x [2, 3]."""
    p = packing_of([("1/4", "1/4", "1/2")])
    ctx = holes._Context(p)
    assert ctx.rects[0] == (1, 2, 2, 3)
    lid_run = holes._Run(0, [(2, 2), (1, 2)])
    chain = holes._Run(GROUND, [(1, 2), (1, 1), (0, 1), (0, 0),
                                (1, 0), (1, 1), (2, 1), (2, 2)])
    return p, Hole(ctx, [lid_run, chain], 2)


def _first_carve():
    """A hole of the staircase example, the lid of its first carve and the
    run that holds the cut's left end."""
    p = pack(BottomLeftState, items("7/8", 1, "1/2", "1/8", "3/8", "5/8"))
    for hole in extract_holes(close_packing(p)):
        found = holes._find_split(hole)
        if found is not None:
            return (hole, *found)
    raise AssertionError("no carve")


class TestCarveGuards:
    def test_second_carve_under_one_square(self):
        hole, lid, at = _first_carve()
        holes._carve(hole, lid, at)
        with pytest.raises(holes.AnalysisError) as err:
            holes._carve(hole, lid, at)
        assert str(err.value) == (
            "copy-uniqueness: square 6 used as a virtual lid twice, "
            "in the hole under the copy of square 6")

    @pytest.mark.parametrize("end", ["mn_left", "mn_right"])
    def test_cut_end_off_the_boundary(self, end):
        hole, lid, at = _first_carve()
        # a point left of the strip, or right of it (N is the copy's right)
        _, r, b, t = lid.rect
        if end == "mn_left":
            lid, p = replace(lid, mn_left=-1), (-1, b)
        else:
            lid = replace(lid, rect=(lid.rect[0], hole.ctx.scale + 1, b, t))
            p = (hole.ctx.scale + 1, b)
        with pytest.raises(holes.AnalysisError) as err:
            holes._carve(hole, lid, at)
        assert str(err.value) == (
            f"split: cut end {p} under square 6 on the boundary 0 times, "
            "in the hole under square 7")

    @pytest.mark.parametrize("end", ["M", "N"])
    def test_cut_end_on_a_pinch_corner(self, end):
        """A cut end the boundary passes twice, at a pinch corner, fails
        as the whole-ring splice fails there."""
        p, hole = _pinch_hole()
        assert hole.corners[(1, 1)] == 2
        # M at the pinch, or M at (0, 1) and N at the pinch
        m, r = (1, 2) if end == "M" else (0, 1)
        lid = holes.VirtualLid(p.items[0], (r - 1, r, 1, 2), m)
        with pytest.raises(holes.AnalysisError) as err:
            _splice(hole, lid)
        assert str(err.value) == "split: cut end (1, 1) on the boundary 2 times"
        with pytest.raises(holes.AnalysisError) as err:
            holes._carve(hole, lid, hole.runs[1])
        assert str(err.value) == (
            "split: cut end (1, 1) under square 1 on the boundary 2 times, "
            "in the hole under square 1")

    @pytest.mark.parametrize("where", ["N before M", "N on the run before M",
                                       "M on the lid"])
    def test_star_through_the_lid(self, where):
        """A cut whose star would hold the parent's lid fails as the
        whole-ring splice fails there: N on M's run before M, N on a run
        that the walk back from M meets before the lid, or M on the lid.  On
        a lattice of scale 2 the hole is the box [0, 2]^2 under the square
        [0, 1] x [2, 3]."""
        p = packing_of([("1/2", 0, 1)])
        lid_run = holes._Run(0, [(2, 2), (0, 2)])
        if where == "N on the run before M":    # down the left side first
            ring = [holes._Run(GROUND, [(0, 2), (0, 0)]),
                    holes._Run(GROUND, [(0, 0), (2, 0), (2, 2)])]
        else:
            ring = [holes._Run(GROUND, [(0, 2), (0, 0), (2, 0), (2, 2)])]
        # M = (2, 1) and N = (0, 1); or M = (1, 2) and N = (2, 2)
        rect, m = ((-1, 0, 1, 2), 2) if where[0] == "N" else ((1, 2, 2, 3), 1)
        lid = holes.VirtualLid(p.items[0], rect, m)
        at = ring[-1] if where[0] == "N" else lid_run    # the run holding M
        messages = []
        for carve in (_splice, holes._carve):
            hole = Hole(holes._Context(p), [lid_run] + ring, 4)
            with pytest.raises(holes.AnalysisError) as err:
                carve(hole, lid, at)
            messages.append(str(err.value))
        # the splice builds the star as a ``Hole``, which finds a real lid
        assert messages == [
            "lid: virtual-lid hole traversed a real lid, in the hole under "
            "square 1",
            "lid: the star under the copy of square 1 holds the parent's lid, "
            "in the hole under square 1"]

    def test_star_on_the_run_of_m(self):
        """A cut whose ends lie on one run, M before N, peels the piece of
        that run between them off as the star, with the copy over it, as
        the whole-ring splice does; the remainder keeps the hole.  The hole
        is the box above, cut at half height from M = (0, 1) to N = (2, 1)."""
        p = packing_of([("1/2", 0, 1)])
        lid_run = holes._Run(0, [(2, 2), (0, 2)])
        ring = holes._Run(GROUND, [(0, 2), (0, 0), (2, 0), (2, 2)])
        hole = Hole(holes._Context(p), [lid_run, ring], 4)
        lid = holes.VirtualLid(p.items[0], (1, 2, 1, 2), 0)
        want = _splice(hole, lid)
        star, remainder = holes._carve(hole, lid, ring)
        _same_piece(star, want[0])
        _same_piece(remainder, want[1])
        assert remainder is hole
        assert [r.points for r in star.runs] == [((2, 1), (0, 1)),
                                                ((0, 1), (0, 0), (2, 0), (2, 1))]

    def test_pinch_corner_contains_counts_crossings(self):
        """At a pinch corner the turn of one pass, south then west, spans
        three quarters, the southeast one among them, which the hole does
        not hold; so ``contains`` counts crossings there."""
        _, hole = _pinch_hole()
        # south then west, and north then east
        for turn in ((3, 2), (1, 0)):
            assert hole.contains(1, 1, turn) is crossings(hole, 1, 1) is False
        assert hole.contains(1, 2, (2, 3)) and hole.contains(0, 1, (2, 3))


class TestStarWalls:
    def test_wall_run_is_second_or_last(self, monkeypatch):
        """A star reads its walls from its second and last runs only, so
        ``classify`` takes a run with no rect before the last for the
        ground or a seam.  On every star of the corpus start, the
        families and the ladder n=480, a wall run is one of those two."""
        carve = holes._carve
        seen = Counter()

        def checked(hole, lid, at):
            star, remainder = carve(hole, lid, at)
            runs = list(star.runs)
            last = len(runs) - 1
            walls = {i for i, run in enumerate(runs)
                     if run.owner in (LEFT_WALL, RIGHT_WALL)}
            assert walls <= {1, last}
            seen["wall" if walls else "no wall"] += 1
            return star, remainder

        monkeypatch.setattr(holes, "_carve", checked)
        for seq in ([corpus_items(s) for s in range(50)]
                    + [family_items(f, s) for f in sorted(FAMILIES)
                       for s in range(10)]
                    + [random_items("ladder:1:480", 480)]):
            run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert seen["wall"] > 0 and seen["no wall"] > 0


# closed packings (side, x, y), in arrival order, that BottomLeft would not
# build, each breaking one of the paper's facts, by the id of its test.
# Searches found them, over random gravity-drop packings and over squares
# put anywhere on the 1/8 grid where a side touches the ground, a wall or
# an earlier square, all but lemma5-no-square-below, which was built by
# hand on the 1/16 grid
PAPER_GUARD_PINS = {
    "area-bound": ("area-bound: hole area 1/2 exceeds bound 3/8, in the hole "
                   "under square 3",
                   [("1/2", "1/2", 0), ("1/2", "1/2", "1/2"), ("3/4", 0, 1)]),
    "lemma4": ("lemma4: right diagonal from square 3 enters the free space, "
               "in the hole under square 4",
               [("1/6", "1/3", 0), ("1/6", "1/2", 0), ("2/3", "1/6", "1/6")]),
    # square 3 floats with its bottom-right corner on square 2's top-left
    # one, and the hole runs under it (a corner the other way round is
    # Type I)
    "lemma3": ("lemma3: last square 3 neither right nor top neighbor of "
               "square 2, in the hole under square 4",
               [("1/4", 0, 0), ("1/8", "1/2", 0), ("1/8", "3/8", "1/8"),
                (1, 0, "1/4")]),
    "lemma7": ("lemma7: cut 1 under square 2 not shorter than 1, in the hole "
               "under square 3",
               [("1/2", "1/4", 0), ("1/4", "1/4", "1/2"), (1, 0, "3/4"),
                ("1/2", "1/2", "7/4"), (1, 0, "9/4"), (1, 0, "13/4"),
                ("1/4", "1/4", "17/4")]),
    # the diagonal leaves square 2 at its lower-right corner, where squares
    # 3 (northeast) and 1 (southwest) bound the hole
    "split-no-run": ("split: crossing square 2 has no run at the crossing, in "
                     "the hole under square 5",
                     [("3/8", "3/8", 0), ("1/8", "5/8", "3/8"),
                      ("1/8", "3/4", "3/8"), ("1/4", "3/8", "1/2")]),
    # the diagonal crosses the right side of square 4, left of which is
    # the ground
    "lemma5-no-square-above": (
        "lemma5: no square above the split point on square 4, in the "
        "hole under square 2",
        [("1/4", 0, "1/4"), ("1/2", "1/2", "3/8"), ("3/8", "1/8", "1/2"),
         ("1/4", "5/8", 0), ("1/4", "1/4", 0)]),
    # the star under square 2's copy: its diagonal, from square 1, enters
    # it from another hole at a corner, where no crossing counts, and
    # leaves square 3 through its bottom; square 3 is the star's last run,
    # and the copy follows it
    "lemma5-no-square-below": (
        "lemma5: no square below the overhang of square 3, in the hole "
        "under the copy of square 2",
        [("1/4", 0, "1/2"), ("3/8", "1/16", "3/4"), ("7/16", "9/16", "5/16"),
         ("1/8", "1/4", "9/16"), ("1/16", "3/8", "9/16"),
         ("1/16", "3/8", "7/16"), ("1/16", "7/16", "1/2"),
         ("1/4", "1/4", "3/16"), ("5/16", "11/16", 0), ("1/4", 0, 0)]),
    # square 2 hangs from the side of square 1, whose top is above its bottom
    "lemma5-not-stacked": ("lemma5: split pair not stacked: up=2 low=1, "
                           "in the hole under square 3",
                           [("1/2", "1/4", 0), ("1/8", "3/4", "3/8")]),
}


def _overcharged(terms):
    """The terms and a term on each side of the first term's square: its
    bottom, its copy's bottom, its left and right sides, and its top, which
    no hole charges.  The square's charge becomes 6/2, over 5/2."""
    t = terms[0]
    return terms + [ChargeTerm(t.square_index, side, virtual, t.segment)
                    for side, virtual in ((SIDE_BOTTOM, False),
                                          (SIDE_BOTTOM, True),
                                          (SIDE_LEFT, False),
                                          (SIDE_RIGHT, False),
                                          (SIDE_TOP, False))]


class TestPaperGuards:
    @pytest.mark.parametrize("message, squares", PAPER_GUARD_PINS.values(),
                             ids=PAPER_GUARD_PINS)
    def test_guard_names_the_fact(self, message, squares, tmp_path,
                                  monkeypatch, capsys):
        """The analysis raises the guard, and ``analyze`` turns it into
        that check's FAIL line with the instance echoed."""
        name = message.split(":")[0]
        with pytest.raises(holes.AnalysisError) as err:
            run_bottomleft_analysis(packing_of(squares))
        assert err.value.name == name and str(err.value) == message
        text = instance_text(items(*(side for side, _, _ in squares)))
        inst = tmp_path / "squares.txt"
        inst.write_text(text)
        monkeypatch.setattr(cli_module, "pack", lambda *_: packing_of(squares))
        assert main(["analyze", "--strategy", "bottomleft",
                     "--input", str(inst)]) == 1
        assert capsys.readouterr().out == \
            f"CHECK {name} FAIL {message}\ninstance:\n{text}"

    def test_charge_over_five_halves_fails_the_check(self, tmp_path,
                                                     monkeypatch, capsys):
        """A square charged over 5/2 raises nothing: ``analyze`` prints the
        full report, whose ``max-charge`` check fails, and exits 1."""
        charge_items = holes._charge_items
        monkeypatch.setattr(holes, "_charge_items",
                            lambda hole: _overcharged(charge_items(hole)))
        seq = items("7/8", 1, "1/2", "1/8", "3/8", "5/8")
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        failed = [c.line() for c in ana.checks if not c.ok]
        assert failed == ["CHECK max-charge FAIL 3 <= 5/2"]
        inst = tmp_path / "squares.txt"
        inst.write_text(instance_text(seq))
        assert main(["analyze", "--strategy", "bottomleft",
                     "--input", str(inst)]) == 1
        assert capsys.readouterr().out == ana.report() + "\n"


class TestLocalContains:
    def test_turn_answer_equals_crossing_count(self, monkeypatch):
        """At every ray candidate on the structured families, whose
        touching corners and coincident edges are where a local answer can
        go wrong, ``contains`` from the turn equals the crossing count."""
        contains = Hole.contains
        seen = Counter()

        def checked(hole, x, y, turn):
            got = contains(hole, x, y, turn)
            if turn is not None:
                assert got == contains(hole, x, y, None)
                seen[got] += 1
            return got

        monkeypatch.setattr(Hole, "contains", checked)
        for seq in [family_items(f, s) for f in sorted(FAMILIES)
                    for s in range(50)]:
            run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert seen[True] > 1000 and seen[False] > 1000

    def test_turn_answer_at_every_corner(self):
        """At every corner of every raw hole, with the turn there, the
        answer equals the crossing count: each kind of turn, not only those
        the diagonals meet."""
        turns = Counter()
        for seq in (LARGE_PANEL + [family_items(f, s) for f in sorted(FAMILIES)
                                   for s in range(10)]):
            for hole in extract_holes(close_packing(pack(BottomLeftState, seq))):
                ring = [p for run in hole.runs for p in run.points[1:]]
                for back, (x, y), ahead in zip(ring[-1:] + ring, ring,
                                               ring[1:] + ring[:1]):
                    turn = (holes._heading(back, (x, y)),
                            holes._heading((x, y), ahead))
                    assert hole.contains(x, y, turn) == crossings(hole, x, y)
                    turns[turn] += 1
        # all eight quarter turns, left and right, occur
        assert {(a, b) for a in range(4) for b in range(4)
                if (a - b) % 2} <= set(turns)


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

    def test_ladder_480_report(self):
        """n=480, where splits dominated the analysis."""
        p = pack(BottomLeftState, random_items("ladder:1:480", 480))
        report = run_bottomleft_analysis(p).report()
        assert _sha256(report) == LADDER_480_REPORT_SHA256

    @pytest.mark.parametrize("name", sorted(SVG_SHA256))
    def test_hole_overlay_svg(self, name):
        seq = LARGE_PANEL[0] if name == "large:0" else nondyadic_items(0)
        ana = run_bottomleft_analysis(pack(BottomLeftState, seq))
        assert _sha256(render_svg(ana.closed, ana.holes)) == SVG_SHA256[name]


# ---------------------------------------------------------------------------
# the Fraction check block that the lattice one replaced, kept as its
# reference
# ---------------------------------------------------------------------------

def reference_checks(p: Packing, ana) -> list[str]:
    """The check lines of ``run_bottomleft_analysis`` from Fraction sums
    over the analysis's holes, bounds and ledger."""
    closed, ledger, zero = ana.closed, ana.ledger, F(0)
    area_sum = sum((pl.item.side ** 2 for pl in p.placements), zero)
    hole_sum = sum((h.area for h in holes.extract_holes(closed)), zero)
    height = p.height
    final_sum = sum((h.area for h in ana.holes), zero)
    closed_area = area_sum + 1
    terms_sum = sum(ana.bounds, zero)
    totals = {idx: F(h, 2) for idx, h in ledger.halves.items()}
    ledger_sum = sum((totals.get(pl.item.index, zero)
                      * pl.item.side ** 2 for pl in closed.placements), zero)
    max_charge = max(totals.values(), default=zero)
    return [c.line() for c in [
        Check("height-identity", height == area_sum + hole_sum,
              str(height), "==", f"{area_sum} + {hole_sum}"),
        Check("split-conservation", final_sum == hole_sum,
              str(final_sum), "==", str(hole_sum)),
        Check("aggregate-bound", hole_sum <= F(5, 2) * closed_area,
              str(hole_sum), "<=", f"5/2 * {closed_area}"),
        Check("terms-soundness", hole_sum <= terms_sum,
              str(hole_sum), "<=", str(terms_sum)),
        Check("ledger-soundness", hole_sum <= ledger_sum,
              str(hole_sum), "<=", str(ledger_sum)),
        Check("max-charge", max_charge <= F(5, 2),
              str(max_charge), "<=", "5/2"),
        Check("theorem1", height <= F(7, 2) * area_sum + F(5, 2),
              str(height), "<=", f"7/2 * {area_sum} + 5/2")]]


CHECKS_PANEL = ([(f"corpus:{seed}", lambda seed=seed: corpus_items(seed))
                 for seed in range(50)]
                + [(f"large:{i}", lambda i=i: LARGE_PANEL[i])
                   for i in range(len(LARGE_PANEL))]
                + [(f"nondyadic:{seed}", lambda seed=seed: nondyadic_items(seed))
                   for seed in range(3)])


class TestChecksAgainstReference:
    """The checks decided on lattice integers print the lines that the
    Fraction sums printed, FAIL lines included."""

    @pytest.mark.parametrize("seq", [seq for _, seq in CHECKS_PANEL],
                             ids=[name for name, _ in CHECKS_PANEL])
    def test_equal_to_reference(self, seq):
        p = pack(BottomLeftState, seq())
        ana = run_bottomleft_analysis(p)
        assert [c.line() for c in ana.checks] == reference_checks(p, ana)

    def test_failing_checks(self, monkeypatch):
        """Analyses fed broken parts fail a check each, with the lines of
        the Fraction sums: a raw hole left out fails ``height-identity``,
        pieces counted twice ``split-conservation``, an empty ledger
        ``ledger-soundness``, and every side of a square charged, its top
        too, which no hole charges, ``max-charge``, its ledger still
        counted exactly."""
        extract, split, charge_items = (holes.extract_holes, holes.split_hole,
                                        holes._charge_items)
        patches = [
            ("extract_holes", lambda closed: extract(closed)[1:]),
            ("split_hole", lambda hole: split(hole) * 2),
            ("compute_charges", lambda terms: ChargeLedger([])),
            ("_charge_items", lambda hole: _overcharged(charge_items(hole)))]
        seq = items("7/8", 1, "1/2", "1/8", "3/8", "5/8")
        failed = []
        for name, broken in patches:
            p = pack(BottomLeftState, seq)  # each analysis closes its own
            with monkeypatch.context() as patch:
                patch.setattr(holes, name, broken)
                ana = run_bottomleft_analysis(p)
                want = reference_checks(p, ana)
            assert [c.line() for c in ana.checks] == want, name
            failed.append([c.name for c in ana.checks if not c.ok])
        assert failed == [["height-identity"], ["split-conservation"],
                          ["ledger-soundness"], ["max-charge"]]


# ---------------------------------------------------------------------------
# growth gates: raw extraction, the carves and the charge terms, at n and 4n
# ---------------------------------------------------------------------------

def ladder_raw_holes(n: int) -> list[Hole]:
    """The raw holes of the closed BottomLeft packing of the ladder at n."""
    seq = random_items(f"ladder:1:{n}", n)
    return extract_holes(close_packing(pack(BottomLeftState, seq)))


class TestAnalysisGrowth:
    """Both layers are linear today: from n = 250 to 1000 the raw holes'
    runs go from 352 to 1291 and the final holes' charge terms from 414 to
    1630.  Work quadratic in n would give 16 times as much at 4n."""

    def test_raw_hole_runs(self):
        assert_grows_linearly(lambda n: sum(
            len(list(h.runs)) for h in ladder_raw_holes(n)), 250)

    def test_charge_terms(self):
        assert_grows_linearly(lambda n: sum(
            len(_charge_items(piece)) for h in ladder_raw_holes(n)
            for piece in split_hole(h)), 250)


class TestCarveGrowth:
    """A carve moves only its smaller side into a new hole: walking from M
    both ways, the walk that meets N first has read at most one run more
    than the other, and the closing run and a split run make the rest.  So
    the runs of the new piece are at most the other piece's plus 2.  A
    carve that copied its star would copy the parent's runs, 19,168 in all
    at n = 250 and 310,777 at n = 1000.  The runs moved grow linearly: 795
    at n = 250, 3,332 at n = 1000 and 13,085 at n = 4000."""

    def test_runs_moved(self, monkeypatch):
        carve = holes._carve

        def moved(n: int) -> int:
            total = 0

            def counted(hole, lid, at):
                nonlocal total
                pieces = carve(hole, lid, at)
                sizes = [len(list(p.runs)) for p in pieces if p is not None]
                runs = sum(len(list(p.runs)) for p in pieces
                           if p is not None and p is not hole)
                assert runs <= min(sizes) + 2, sizes
                total += runs
                return pieces

            with monkeypatch.context() as patch:
                patch.setattr(holes, "_carve", counted)
                for h in ladder_raw_holes(n):
                    split_hole(h)
            return total

        small, _ = assert_grows_linearly(moved, 250)
        assert small > 0


class TestCollectorPause:
    def test_the_collector_state_is_restored(self):
        """The analysis pauses the cyclic garbage collector and leaves it as
        it found it, on, off, or after a raise: a packing is closed once,
        so a second analysis of it fails."""
        p = pack(BottomLeftState, LARGE_PANEL[0])
        assert gc.isenabled()
        run_bottomleft_analysis(p)
        assert gc.isenabled()
        with pytest.raises(PackingError, match="not the newest packing"):
            run_bottomleft_analysis(p)
        assert gc.isenabled()
        gc.disable()
        try:
            run_bottomleft_analysis(pack(BottomLeftState, LARGE_PANEL[1]))
            assert not gc.isenabled()
        finally:
            gc.enable()
