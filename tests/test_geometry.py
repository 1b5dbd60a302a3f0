import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import (GridError, ObstacleGrid, boundary_edges,
                            trace_boundary, walk_boundary)
from span_reference import (intersect_spans, merge_spans, spans_contain,
                            subtract_spans_open)
from strippack import geometry
from strippack.geometry import Rect, StepProfile

Z = F(0)


def spans(*pairs):
    return [(F(a), F(b)) for a, b in pairs]


def total_length(sp):
    return sum((hi - lo for lo, hi in sp), Z)


class TestIntervalSetOps:
    """Hand cases for the closed span-list helpers."""

    def test_union_touching_merges(self):
        assert merge_spans(spans((0, "1/2"), ("1/2", 1))) == spans((0, 1))

    def test_union_identity(self):
        assert merge_spans(spans(("1/4", "3/4"))) == spans(("1/4", "3/4"))
        assert merge_spans([]) == []

    def test_union_hand(self):
        a = spans((0, "1/4"), ("1/2", 1))
        b = spans(("1/8", "5/8"))
        assert merge_spans(a + b) == spans((0, 1))

    def test_intersect_nested(self):
        assert intersect_spans(spans((0, 1)), spans(("1/4", "1/2"))) \
            == spans(("1/4", "1/2"))

    def test_intersect_disjoint(self):
        assert intersect_spans(spans((0, "1/4")), spans(("1/2", 1))) == []

    def test_intersect_hand(self):
        a = spans((0, "1/2"), ("3/4", 1))
        b = spans(("1/4", "7/8"))
        assert intersect_spans(a, b) == spans(("1/4", "1/2"), ("3/4", "7/8"))

    def test_subtract_middle(self):
        assert subtract_spans_open(spans((0, 1)), spans(("1/4", "1/2"))) \
            == spans((0, "1/4"), ("1/2", 1))

    def test_subtract_identity(self):
        assert subtract_spans_open(spans((0, 1)), []) == spans((0, 1))

    def test_subtract_annihilation(self):
        # an open obstacle over the whole span leaves its two endpoints
        assert subtract_spans_open(spans((0, 1)), spans((0, 1))) \
            == spans((0, 0), (1, 1))
        assert subtract_spans_open(spans((0, 1)), spans((-1, 2))) == []


scalars = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def span_lists(draw):
    """A normalized closed span list (degenerate spans allowed)."""
    pts = sorted(draw(st.lists(scalars, min_size=0, max_size=8)))
    return merge_spans([(pts[i], pts[i + 1])
                        for i in range(0, len(pts) - 1, 2)])


@st.composite
def open_spans(draw):
    """Unsorted, possibly overlapping open obstacles, some degenerate."""
    pairs = draw(st.lists(st.tuples(scalars, scalars), max_size=6))
    return [(min(p), max(p)) for p in pairs]


class TestIntervalSetProperties:
    @given(span_lists(), span_lists())
    @settings(max_examples=200)
    def test_inclusion_exclusion(self, a, b):
        u = merge_spans(a + b)
        i = intersect_spans(a, b)
        assert total_length(u) + total_length(i) \
            == total_length(a) + total_length(b)

    @given(span_lists(), open_spans())
    @settings(max_examples=200)
    def test_subtract_union_roundtrip(self, a, opens):
        rest = subtract_spans_open(a, opens)
        cut = intersect_spans(a, merge_spans(opens))
        # the two pieces share endpoints only, so lengths add up
        assert total_length(rest) + total_length(cut) == total_length(a)

    @given(span_lists(), open_spans())
    @settings(max_examples=300)
    def test_subtract_open_inside_and_clear(self, a, opens):
        rest = subtract_spans_open(a, opens)
        for lo, hi in rest:
            assert lo <= hi
            assert any(alo <= lo and hi <= ahi for alo, ahi in a)
            for blo, bhi in opens:
                assert blo == bhi or hi <= blo or bhi <= lo
        # and nothing of a outside every obstacle is lost
        marks = sorted({x for sp in a + opens for x in sp})
        probes = marks + [(u + v) / 2 for u, v in zip(marks, marks[1:])]
        for x in probes:
            kept = spans_contain(a, x) and not any(
                blo < x < bhi for blo, bhi in opens)
            assert spans_contain(rest, x) == kept

    @given(span_lists())
    @settings(max_examples=100)
    def test_normalized(self, a):
        for (l1, h1), (l2, h2) in zip(a, a[1:]):
            assert h1 < l2


CELLS = [1, 2, 4, 8, 16]


def raised(lo, hi, value, prof=None):
    prof = prof if prof is not None else StepProfile(F(1))
    prof.raised(F(lo), F(hi), F(value))
    return prof


class TestStepProfile:
    def test_flat(self):
        prof = StepProfile(F(1))
        assert prof.max_over(F(0), F(1)) == 0

    def test_open_interior_boundary_excluded(self):
        prof = raised(0, "1/2", "1/4")
        assert prof.max_over(F(1, 2), F(1)) == 0

    def test_spanning_query(self):
        prof = raised(0, "1/2", "1/4")
        assert prof.max_over(F(1, 4), F(3, 4)) == F(1, 4)

    def test_raise_merges_breakpoints(self):
        prof = raised("1/2", 1, "1/4", raised(0, "1/2", "1/4"))
        assert (prof.starts, prof.values) == ([0], [F(1, 4)])

    def test_raise_merges_with_both_neighbours(self):
        prof = raised("3/4", 1, "1/4", raised(0, "1/4", "1/4"))
        raised("1/4", "3/4", "1/8", prof)
        assert prof.values == [F(1, 4), F(1, 8), F(1, 4)]
        raised("1/4", "3/4", "1/4", prof)
        assert (prof.starts, prof.values) == ([0], [F(1, 4)])

    def test_scale_by(self):
        prof = raised("1/4", "1/2", "3/8")
        prof.scale_by(8)
        assert (prof.end, prof.starts, prof.values) == (8, [0, 2, 4], [0, 3, 0])

    @staticmethod
    def brute_lowest(prof, w):
        return min(range(prof.end // w),
                   key=lambda j: (prof.max_over(j * w, (j + 1) * w), j))

    def test_scale_by_keeps_the_candidates(self, monkeypatch):
        """A query at one width before and after a rescale: the first lists
        every cell, the second, after a raise, only the cells the raise
        dirtied, and neither a rescale nor a repeat lists any."""
        listed = []
        candidates = StepProfile._candidates

        def recorded(self, w, j0, j1):
            listed.append((w, j0, j1))
            return candidates(self, w, j0, j1)

        monkeypatch.setattr(StepProfile, "_candidates", recorded)
        prof = StepProfile(16)
        for lo, hi, v in ((0, 4, 3), (5, 6, 1), (9, 16, 2)):
            prof.raised(lo, hi, v)
        assert prof.lowest_cell(2) == self.brute_lowest(prof, 2) == 3
        prof.scale_by(3)
        assert prof.lowest_cell(6) == self.brute_lowest(prof, 6) == 3
        prof.raised(18, 27, 6)
        assert prof.lowest_cell(6) == self.brute_lowest(prof, 6) == 2
        assert listed == [(2, 0, 8), (6, 3, 6)]

    def test_scale_by_matches_brute_force(self):
        """Seeded raises, each followed by a query at one lattice width,
        with rescales in between: every answer is the brute-force one."""
        rng = random.Random("scale-by")
        for case in range(40):
            cells = rng.choice(CELLS)
            prof, f = StepProfile(16), 1
            for _ in range(12):
                if rng.random() < 0.3:
                    g = rng.choice([2, 3, 5])
                    prof.scale_by(g)
                    f *= g
                else:
                    lo = rng.randrange(16)
                    hi = rng.randint(lo + 1, 16)
                    prof.raised(lo * f, hi * f, rng.randint(0, 9) * f)
                w = 16 // cells * f
                assert prof.lowest_cell(w) == self.brute_lowest(prof, w), case

    @given(st.lists(st.one_of(
               st.tuples(st.integers(0, 15), st.integers(1, 16),
                         st.integers(0, 9),
                         st.one_of(st.none(), st.sampled_from(CELLS))),
               st.sampled_from([2, 3])), max_size=16),
           st.sampled_from(CELLS))
    @settings(max_examples=300)
    def test_matches_dense_model(self, steps, cells):
        """Integer profile on [0, 16) against one height per unit, scaled
        by ``f``.  After every raise, ``lowest_cell`` is asked at ``cells``
        cells, and now and then at a second count, which sends the next
        query at ``cells`` back to a cold scan.  An integer step multiplies
        the profile through, what it kept included: after a doubling, the
        first query asks at the lattice width asked last, which the kept
        candidates, now at twice that width, must not serve."""
        prof = StepProfile(16)
        dense, f, asked = [0] * 16, 1, [1]

        def check_lowest(cells):
            asked.append(cells)
            w = 16 // cells
            tops = [max(dense[j * w:(j + 1) * w]) for j in range(cells)]
            assert prof.lowest_cell(w * f) == \
                min(range(cells), key=lambda j: (tops[j], j))

        for step in steps:
            if isinstance(step, int):
                prof.scale_by(step)
                f *= step
                if step == 2 and asked[-1] < 16:
                    check_lowest(2 * asked[-1])
                check_lowest(cells)
                continue
            lo, length, value, other = step
            hi = min(lo + length, 16)
            prof.raised(lo * f, hi * f, value * f)
            for x in range(lo, hi):
                dense[x] = max(dense[x], value)
            assert prof.values == [v * f for x, v in enumerate(dense)
                                   if x == 0 or dense[x - 1] != v]
            assert prof.starts == [x * f for x in range(16)
                                   if x == 0 or dense[x - 1] != dense[x]]
            check_lowest(cells)
            if other is not None:
                check_lowest(other)
        for lo in range(16):
            for hi in range(lo + 1, 17):
                assert prof.max_over(lo * f, hi * f) == max(dense[lo:hi]) * f
        check_lowest(cells)


def rect(x0, y0, x1, y1):
    return Rect(F(x0), F(x1), F(y0), F(y1))


def bounded_components(obstacles, ceiling):
    """Bounded free components of [0, 1] x [0, ceiling] minus the
    obstacles, as (cells, area) with the area summed over the grid cells."""
    grid = ObstacleGrid([(r.left, r.right, r.bottom, r.top) for r in obstacles],
                        F(1), ceiling)
    xs, ys = grid.xs, grid.ys
    return [(c["cells"], sum((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
                             for i, j in c["cells"]))
            for c in grid.free_components() if c["bounded"]]


class TestFreeComponents:
    def test_full_row_no_holes(self):
        assert bounded_components([rect(0, 0, 1, 1)], F(2)) == []

    def test_step_hole(self):
        comps = bounded_components(
            [rect(0, 0, "1/2", "1/2"), rect("1/2", 0, 1, "1/4"),
             rect(0, "1/2", 1, "3/2")], F(3, 2))
        assert len(comps) == 1
        assert comps[0][1] == F(1, 8)

    def test_u_shape_notch(self):
        comps = bounded_components(
            [rect(0, 0, "3/8", 1), rect("3/8", 0, "5/8", "3/4"),
             rect("5/8", 0, 1, 1), rect(0, 1, 1, 2)], F(2))
        assert len(comps) == 1
        assert comps[0][1] == F(1, 16)
        cycle = trace_boundary(comps[0][0])     # closed cycle present
        assert cycle[0][0] == cycle[-1][1]

    def test_overlapping_obstacles_rejected(self):
        with pytest.raises(GridError):
            bounded_components([rect(0, 0, "1/2", "1/2"),
                                rect("1/4", "1/4", "3/4", "3/4")], F(1))

    def test_area_conservation(self):
        obstacles = [rect(0, 0, "1/2", "1/2"), rect("1/2", 0, 1, "1/4"),
                     rect(0, "1/2", 1, "3/2")]
        ceiling = F(3, 2)
        bounded = bounded_components(obstacles, ceiling)
        total_free = ceiling * 1 - sum((r.right - r.left) * (r.top - r.bottom)
                                      for r in obstacles)
        unbounded = total_free - sum(area for _, area in bounded)
        assert unbounded == 0   # lid spans the strip: nothing escapes


class TestBoundaryWalk:
    L_SHAPE = {(0, 0), (1, 0), (2, 0), (0, 1)}
    # a ring with its top-right corner cell missing: (2, 1) and (1, 2) meet
    # only at the vertex (2, 2), where the outer and inner boundary touch
    PINCHED = {(i, j) for i in range(3) for j in range(3)} - {(1, 1), (2, 2)}

    def test_l_shape_cycle(self):
        cycle = trace_boundary(self.L_SHAPE)
        assert cycle[0] == ((0, 0), (1, 0))
        assert [p for p, _ in cycle] == [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1),
                                          (2, 1), (1, 1), (1, 2), (0, 2), (0, 1)]

    def test_walk_ignores_edge_order(self):
        for cells in (self.L_SHAPE, self.PINCHED):
            edges = boundary_edges(cells)
            assert walk_boundary(edges[::-1]) == walk_boundary(edges)

    def test_pinch_turns_left(self):
        cycle = trace_boundary(self.PINCHED)
        assert len(cycle) == 16
        at_pinch = [q for p, q in cycle if p == (2, 2)]
        assert at_pinch == [(2, 1), (2, 3)]

    def test_corner_touching_cells_rejected(self):
        with pytest.raises(GridError):
            trace_boundary({(0, 0), (1, 1)})

    def test_island_rejected(self):
        ring = {(i, j) for i in range(3) for j in range(3)} - {(1, 1)}
        with pytest.raises(GridError):
            trace_boundary(ring)


class TestSweepFailures:
    """The free space's boundary pieces fail with an AnalysisError named
    for its cause, on a strip 4 wide: overlapping obstacles, an obstacle
    above the ceiling, a gap that meets the ceiling, and a square floating
    inside a hole, whose boundary is then two cycles."""

    @pytest.mark.parametrize("name, obstacles, ceiling", [
        ("overlap", [(0, 2, 0, 2), (1, 3, 1, 3), (0, 4, 3, 7)], 7),
        ("ceiling", [(0, 4, 3, 8)], 7),
        ("unbounded", [(0, 2, 0, 2)], 4),
        ("boundary", [(1, 2, 1, 2), (0, 4, 3, 7)], 7),
    ])
    def test_failure_names_its_cause(self, name, obstacles, ceiling):
        with pytest.raises(geometry.AnalysisError) as err:
            for comp in geometry.ObstacleGrid(obstacles, 4,
                                              ceiling).free_components():
                geometry.trace_boundary(comp)
        assert err.value.name == name

    @pytest.mark.parametrize("obstacles, message", [
        # the overlap at x = 1 comes before free space meets the ceiling
        # at x = 3
        ([(0, 2, 0, 2), (1, 3, 1, 3), (0, 3, 6, 7)],
         "overlap: obstacles 0 and 1 overlap at x = 1"),
        # free space meets the ceiling at the left wall, before the
        # overlap at x = 3
        ([(0, 1, 0, 1), (2, 4, 0, 2), (3, 4, 1, 3), (1, 4, 6, 7)],
         "unbounded: a gap meets the ceiling at x = 0"),
        # both faults first appear at x = 1, and the overlap is named
        ([(0, 2, 0, 2), (1, 2, 1, 3), (0, 1, 6, 7)],
         "overlap: obstacles 0 and 1 overlap at x = 1"),
    ])
    def test_the_fault_at_the_least_x_is_named(self, obstacles, message):
        with pytest.raises(geometry.AnalysisError) as err:
            geometry.ObstacleGrid(obstacles, 4, 7)
        assert str(err.value) == message

    # blocks of three split at six, at x = 3; at x = 5 square 4, the second
    # block's first, ends, and square 0 starts over square 2, which starts
    # there too: only a first entry moved up to square 3 sends square 0 to
    # the block that holds square 2
    STALE_FIRST = [(5, 9, 27, 31), (0, 4, 20, 24), (5, 8, 25, 28),
                   (3, 7, 60, 64), (2, 5, 26, 29), (3, 7, 4, 8), (3, 5, 1, 3),
                   (1, 4, 37, 40)]

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_the_blocked_sweep_names_the_first_overlap(self, monkeypatch,
                                                       block):
        """With blocks of a few active obstacles, so that blocks split and
        empty all the time, the overlap sweep names the fault that a search
        of every earlier active obstacle names: the least x where an
        obstacle starts over another, and the lowest one there.  Each
        instance scatters disjoint squares over a strip 12 wide and drops up
        to two more anywhere."""
        def search(obstacles):
            order = sorted((l, b, t, k, r)
                           for k, (l, r, b, t) in enumerate(obstacles))
            for i, (l, b, t, k, _) in enumerate(order):
                hits = [(b2, t2, j) for _, b2, t2, j, r2 in order[:i]
                        if r2 > l and b2 < t and b < t2]
                if hits:
                    return l, min(hits)[2], k
            return None

        def square(rng):
            s = rng.randint(1, 4)
            l, b = rng.randint(0, 12 - s), rng.randint(0, 60)
            return l, l + s, b, b + s

        monkeypatch.setattr(geometry, "_BLOCK", block)
        assert geometry._first_overlap(self.STALE_FIRST) == \
            search(self.STALE_FIRST) == (5, 2, 0)
        rng = random.Random(block)
        faults = 0
        for _ in range(150):
            obstacles = []
            for _ in range(60):
                l, r, b, t = square(rng)
                if all(r <= l2 or r2 <= l or t <= b2 or t2 <= b
                       for l2, r2, b2, t2 in obstacles):
                    obstacles.append((l, r, b, t))
            obstacles += [square(rng) for _ in range(rng.randint(0, 2))]
            want = search(obstacles)
            assert geometry._first_overlap(obstacles) == want
            faults += want is not None
        assert 0 < faults < 150
