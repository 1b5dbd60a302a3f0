"""Per-layer tracing from outside the program.

The traced pass wraps public functions of each strippack module with a
span recorder.  A function bound in several modules is replaced in every
module that binds it; a method is replaced on its class.  Spans are kept in
memory as (name, start, end, parent, nested) and reduced at the end: a
``.s`` metric is the time inside the outermost spans of a name, a
``.self_s`` metric subtracts the direct child spans, and counts are calls or
sizes read from arguments and results.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name, counter name, size of one call)
PATCHES = [
    ("geometry", "ObstacleGrid.__init__", "geometry.grid",
     "geometry.grid.cells", lambda args, res: args[0].nx * args[0].ny),
    ("geometry", "ObstacleGrid.free_components", "geometry.grid", None, None),
    ("geometry", "trace_boundary", "geometry.trace",
     "geometry.trace.cells", lambda args, res: len(args[0])),
    ("geometry", "StepProfile.max_over", "geometry.profile", None, None),
    ("geometry", "StepProfile.raised", "geometry.profile", None, None),
    ("packing", "reachable_positions", "packing.reach",
     "packing.reach.obstacles", lambda args, res: len(args[0])),
    ("packing", "verify_packing", "packing.verify",
     "packing.verify.steps", lambda args, res: len(args[1])),
    ("packing", "is_supported", "packing.support", None, None),
    ("packing", "Packing.extended", "packing.extend", None, None),
    ("bottomleft", "bl_place_next", "bottomleft.place", None, None),
    ("slots", "SlotState.place", "slots.place", None, None),
    ("slots", "SlotState.choose", "slots.choose", None, None),
    ("slots", "round_to_dyadic", "slots.round", None, None),
    ("holes", "extract_holes", "holes.extract",
     "holes.raw", lambda args, res: len(res)),
    ("holes", "split_hole", "holes.split",
     "holes.final", lambda args, res: len(res)),
    ("holes", "Hole.__init__", "holes.build",
     "holes.build.cells", lambda args, res: len(args[2])),
    ("holes", "hole_area_bound", "holes.bound", None, None),
    ("holes", "compute_charges", "holes.ledger", None, None),
    ("shadows", "charge_map", "shadows.charge_map", "shadows.charge_map.regions",
     lambda args, res: sum(len(v) for v in res.regions.values())),
    ("shadows", "check_slot_bounds", "shadows.bounds", None, None),
    ("adversary", "adversary_run", "adversary.run", None, None),
    ("adversary", "optimal_packing_for_transcript", "adversary.optimal",
     None, None),
    ("harness", "parse_instance", "harness.parse", None, None),
    ("harness", "parse_placements_csv", "harness.parse", None, None),
    ("harness", "placements_csv", "harness.csv", None, None),
]

# counted on every call, without a span: too small and too frequent to time
COUNTED = [("geometry", "Rect.interior_overlaps", "geometry.overlap.calls")]

PER_LAYER = [
    "geometry.grid.s", "geometry.grid.cells",
    "geometry.trace.s", "geometry.trace.cells",
    "geometry.profile.calls", "geometry.profile.s",
    "geometry.overlap.calls",
    "packing.reach.calls", "packing.reach.s", "packing.reach.obstacles",
    "packing.verify.calls", "packing.verify.steps", "packing.verify.self_s",
    "packing.support.calls", "packing.support.s",
    "packing.extend.calls", "packing.extend.s",
    "bottomleft.place.calls", "bottomleft.place.self_s",
    "slots.place.calls", "slots.place.self_s", "slots.choose.s",
    "slots.round.s",
    "holes.extract.s", "holes.raw",
    "holes.split.self_s", "holes.final",
    "holes.build.calls", "holes.build.s", "holes.build.cells",
    "holes.builds_per_final",
    "holes.bound.s", "holes.ledger.s",
    "shadows.charge_map.s", "shadows.charge_map.regions", "shadows.bounds.s",
    "adversary.run.self_s", "adversary.optimal.s",
    "harness.parse.s", "harness.csv.s",
    "bench.trace_overhead_s",
]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start_ns, end_ns, parent, nested)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def span(self, fn, name, counter, size):
        spans, stack, active, counts = (self.spans, self._stack, self._active,
                                        self.counts)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            nested = active[name] > 0
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[name] += 1
            start = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, nested)
            if counter and not nested:
                counts[counter] += size(args, res)
            return res
        return wrapper

    def count(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def metrics(self, overhead_s: float, scale: float) -> dict[str, float]:
        """Per-layer metrics; times are scaled by ``scale`` into reference
        seconds (see speed.py)."""
        calls, total, child = Counter(), Counter(), Counter()
        for name, start, end, parent, nested in self.spans:
            calls[name] += 1
            if not nested:
                total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        out = {}
        for metric in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if metric in self.counts:
                out[metric] = self.counts[metric]
            elif stat == "calls":
                out[metric] = calls[base]
            elif stat == "s":
                out[metric] = total[base] / 1e9 * scale
            elif stat == "self_s":
                out[metric] = own[base] / 1e9 * scale
            else:
                out[metric] = 0
        final = out["holes.final"]
        out["holes.builds_per_final"] = (out["holes.build.calls"] / final
                                         if final else 0)
        out["bench.trace_overhead_s"] = overhead_s
        return out


def _bindings(original):
    """Every (namespace, name) in a loaded strippack module bound to
    ``original``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "strippack" or modname.startswith("strippack."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    yield mod, name


def install(tracer: Tracer) -> list:
    """Patch every entry of PATCHES and COUNTED; returns the undo list."""
    undo = []
    entries = [(m, a, tracer.span, (n, c, s)) for m, a, n, c, s in PATCHES]
    entries += [(m, a, tracer.count, (c,)) for m, a, c in COUNTED]
    for modname, attr, make, extra in entries:
        mod = sys.modules[f"strippack.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, make(original, *extra))
        else:
            original = getattr(mod, attr)
            wrapped = make(original, *extra)
            for owner, name in list(_bindings(original)):
                undo.append((owner, name, original))
                setattr(owner, name, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
