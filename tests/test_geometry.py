from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strippack.geometry import (GeometryError, Interval, IntervalSet, Rect,
                                StepProfile, boundary_edges, free_components,
                                interval_set_intersect, interval_set_subtract,
                                interval_set_union, profile_max_over,
                                simple_cycle, trace_boundary, walk_boundary)

Z = F(0)


def iset(*pairs):
    return IntervalSet.from_pairs([(F(a), F(b)) for a, b in pairs])


class TestIntervalSetOps:
    def test_union_touching_merges(self):
        assert interval_set_union(iset((0, "1/2")), iset(("1/2", 1))) == iset((0, 1))

    def test_union_identity(self):
        assert interval_set_union(IntervalSet.empty(), iset(("1/4", "3/4"))) \
            == iset(("1/4", "3/4"))

    def test_union_hand(self):
        a = iset((0, "1/4"), ("1/2", 1))
        b = iset(("1/8", "5/8"))
        assert interval_set_union(a, b) == iset((0, 1))

    def test_intersect_nested(self):
        assert interval_set_intersect(iset((0, 1)), iset(("1/4", "1/2"))) \
            == iset(("1/4", "1/2"))

    def test_intersect_disjoint(self):
        assert interval_set_intersect(iset((0, "1/4")), iset(("1/2", 1))) \
            == IntervalSet.empty()

    def test_intersect_hand(self):
        a = iset((0, "1/2"), ("3/4", 1))
        b = iset(("1/4", "7/8"))
        assert interval_set_intersect(a, b) == iset(("1/4", "1/2"), ("3/4", "7/8"))

    def test_subtract_middle(self):
        assert interval_set_subtract(iset((0, 1)), iset(("1/4", "1/2"))) \
            == iset((0, "1/4"), ("1/2", 1))

    def test_subtract_identity(self):
        assert interval_set_subtract(iset((0, 1)), IntervalSet.empty()) == iset((0, 1))

    def test_subtract_annihilation(self):
        assert interval_set_subtract(iset((0, 1)), iset((0, 1))) == IntervalSet.empty()

    def test_bad_interval(self):
        with pytest.raises(GeometryError):
            Interval(F(1), F(0))


scalars = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def interval_sets(draw):
    pts = sorted(draw(st.lists(scalars, min_size=0, max_size=8)))
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    return IntervalSet.from_pairs(pairs)


class TestIntervalSetProperties:
    @given(interval_sets(), interval_sets())
    @settings(max_examples=200)
    def test_inclusion_exclusion(self, a, b):
        u = interval_set_union(a, b)
        i = interval_set_intersect(a, b)
        assert u.total_length + i.total_length == a.total_length + b.total_length

    @given(interval_sets(), interval_sets())
    @settings(max_examples=200)
    def test_subtract_union_roundtrip(self, a, b):
        left = interval_set_union(interval_set_subtract(a, b),
                                  interval_set_intersect(a, b))
        # equality up to endpoint normalization: degenerate pieces may merge
        assert left.total_length == a.total_length
        for lo, hi in left.spans:
            assert a.contains(lo) and a.contains(hi)

    @given(interval_sets())
    @settings(max_examples=100)
    def test_normalized(self, a):
        for (l1, h1), (l2, h2) in zip(a.spans, a.spans[1:]):
            assert h1 < l2


class TestStepProfile:
    def test_flat(self):
        prof = StepProfile.constant(Z)
        assert profile_max_over(prof, Interval(F(0), F(1))) == 0

    def test_open_interior_boundary_excluded(self):
        prof = StepProfile.constant(Z).raised(F(0), F(1, 2), F(1, 4))
        assert prof.max_over(F(1, 2), F(1)) == 0

    def test_spanning_query(self):
        prof = StepProfile.constant(Z).raised(F(0), F(1, 2), F(1, 4))
        assert prof.max_over(F(1, 4), F(3, 4)) == F(1, 4)

    def test_zero_length_query_rejected(self):
        prof = StepProfile.constant(Z)
        with pytest.raises(GeometryError):
            prof.max_over(F(1, 2), F(1, 2))

    def test_raise_merges_breakpoints(self):
        prof = StepProfile.constant(Z).raised(F(0), F(1, 2), F(1, 4))
        prof = prof.raised(F(1, 2), F(1), F(1, 4))
        assert prof == StepProfile.constant(F(1, 4))


def rect(x0, y0, x1, y1):
    return Rect.of(F(x0), F(y0), F(x1), F(y1))


class TestFreeComponents:
    def test_full_row_no_holes(self):
        assert free_components([rect(0, 0, 1, 1)], F(2)) == []

    def test_step_hole(self):
        comps = free_components(
            [rect(0, 0, "1/2", "1/2"), rect("1/2", 0, 1, "1/4"),
             rect(0, "1/2", 1, "3/2")], F(3, 2))
        assert len(comps) == 1
        assert comps[0].area == F(1, 8)

    def test_u_shape_notch(self):
        comps = free_components(
            [rect(0, 0, "3/8", 1), rect("3/8", 0, "5/8", "3/4"),
             rect("5/8", 0, 1, 1), rect(0, 1, 1, 2)], F(2))
        assert len(comps) == 1
        assert comps[0].area == F(1, 16)
        assert comps[0].boundary   # closed cycle present

    def test_overlapping_obstacles_rejected(self):
        with pytest.raises(GeometryError):
            free_components([rect(0, 0, "1/2", "1/2"),
                             rect("1/4", "1/4", "3/4", "3/4")], F(1))

    def test_area_conservation(self):
        obstacles = [rect(0, 0, "1/2", "1/2"), rect("1/2", 0, 1, "1/4"),
                     rect(0, "1/2", 1, "3/2")]
        ceiling = F(3, 2)
        bounded = free_components(obstacles, ceiling)
        total_free = ceiling * 1 - sum(r.area for r in obstacles)
        unbounded = total_free - sum(c.area for c in bounded)
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

    def test_simple_cycle(self):
        edges = boundary_edges(self.L_SHAPE)
        assert simple_cycle(set(edges)) == trace_boundary(self.L_SHAPE)
        assert simple_cycle(boundary_edges(self.PINCHED)) is None
        assert simple_cycle(boundary_edges({(0, 0), (2, 0)})) is None

    def test_corner_touching_cells_rejected(self):
        with pytest.raises(GeometryError):
            trace_boundary({(0, 0), (1, 1)})

    def test_island_rejected(self):
        ring = {(i, j) for i in range(3) for j in range(3)} - {(1, 1)}
        with pytest.raises(GeometryError):
            trace_boundary(ring)
