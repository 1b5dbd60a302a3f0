"""Reference span algebra: the general interval helpers the reachability
sweep and the BottomLeft search were first written with.

Lists of ``(lo, hi)`` pairs, ``lo <= hi``, of any exactly ordered type.
Closed span lists are sorted and may hold degenerate single points; open
spans cover only their interiors.  The package now answers its two span
questions with ``packing._free`` and ``packing._meeting``; the tests keep
these helpers as the oracle those passes are checked against.
"""


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
