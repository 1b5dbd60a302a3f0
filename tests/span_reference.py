"""Reference span algebra and reference sweep.

The general interval helpers the reachability sweep and the BottomLeft
search were first written with: lists of ``(lo, hi)`` pairs, ``lo <= hi``,
of any exactly ordered type.  Closed span lists are sorted and may hold
degenerate single points; open spans cover only their interiors.

``reference_reachable`` is ``packing.reachable_positions`` as it was before
its levels ran only the span passes their events need: it sorts the whole
active set twice at every level, computes its free spans with ``_free``
and keeps those that meet the spans above with ``_meeting``.  The package
answers both questions with one pass, ``packing._free_meeting``, and the
tests check that pass against ``subtract_spans_open`` and ``spans_meet``,
and the sweep against this one.
"""

from bisect import bisect_right
from heapq import heappop, heappush


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


def _in_open(opens, x) -> bool:
    for lo, hi in opens:
        if lo < x < hi:
            return True
        if lo >= x:
            return False
    return False


def reference_reachable(p, at):
    """``(level, spans)`` of the side ``at[1] - at[0]`` square floored at
    ``at[2]``, by two ``_free`` and two ``_meeting`` passes at every level
    of the top-down sweep."""
    lat = p._lat
    sa, low, scale = at[1] - at[0], at[2], lat.scale
    w = scale - sa
    full = [(0, w)]
    bottoms, order, rects, n = lat.bottoms, lat.order, lat.rects, p._n
    stop = bisect_right(bottoms, low - scale)
    k = len(bottoms)
    heap, active = [], []
    lv, r_prev = None, full
    while True:
        while k > stop and (not heap or bottoms[k - 1] + scale >= -heap[0][0]):
            k -= 1
            l, r, b, t = rects[order[k]]
            if order[k] < n and t > low:
                heappush(heap, (-t, False, l - sa, r))
                if b - sa >= low:
                    heappush(heap, (sa - b, True, l - sa, r))
        if not heap:
            return low, r_at if lv == low else r_prev
        lv, entering = -heap[0][0], []
        while heap and heap[0][0] == -lv:
            _, leaves, lo, hi = heappop(heap)
            if leaves:
                active.remove((lo, hi))
            else:
                entering.append((lo, hi))
        r_at = _meeting(_free(active, w), r_prev)
        active += entering
        r_prev = _meeting(_free(active, w), r_at)
        if not r_prev:
            return lv, r_at


def _free(opens, w):
    """Closed spans of [0, w] outside every open span of ``opens``, in
    ascending order; a point where two opens touch stays free, as a
    single-point span.  Degenerate opens cover nothing."""
    out, cur = [], 0
    for lo, hi in sorted(opens):
        if lo > w:
            break
        if hi > cur and hi > lo:
            if lo >= cur:
                out.append((cur, lo))
            cur = hi
    if cur <= w:
        out.append((cur, w))
    return out


def _meeting(spans, marks):
    """The spans, in ascending disjoint order, that share a point with some
    span of ``marks``, also ascending and disjoint."""
    out, j = [], 0
    for lo, hi in spans:
        while j < len(marks) and marks[j][1] < lo:
            j += 1
        if j < len(marks) and marks[j][0] <= hi:
            out.append((lo, hi))
    return out
