"""Benchmark for strippack: the CLI's operations end to end, in one process.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, then replays whole rounds of
CLI operations (``strippack.cli.main`` in-process, one after another) for
about ``--seconds`` seconds, checking every output with bench/checks.py.
Times are in reference seconds (bench/speed.py).  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it replays a fixed number
of rounds, each untraced and then again with the per-layer wrappers of
bench/layers.py, and prints the per-layer metrics.  The last stdout line is
one JSON object; a result file with medians, tails, sample counts and
output digests goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import layers
import workloads
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 15
KINDS = ["run_bl", "run_slot", "verify", "analyze_bl", "analyze_slot",
         "adversary_bl", "adversary_slot", "killer"]


class Runner:
    """Runs CLI operations, marks their start and end on the Speed clock,
    checks them, and digests their outputs."""

    def __init__(self, main, speed: Speed):
        self.main = main
        self.speed = speed
        self.intervals: dict[str, list[tuple]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def op(self, kind, label, argv, check, outputs=(), code=0):
        """Run ``strippack <argv>``; return ``check(stdout, *output texts)``,
        or None when the exit code or the check is wrong."""
        self.attempted[kind] += 1
        argv = [str(a) for a in argv]
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = self.speed.now()
            try:
                got = self.main(argv)
            except Exception as exc:       # a traceback is a failed operation
                got = f"{type(exc).__name__}: {exc}"
            self.intervals[kind].append((start, self.speed.now()))
        texts = [Path(p).read_text() if Path(p).exists() else ""
                 for p in outputs]
        digest = hashlib.sha256()
        for text in [out.getvalue()] + texts:
            digest.update(text.encode() + b"\0")
        self.digests[f"{kind} {label}"] = digest.hexdigest()[:16]
        if got != code:
            return self._fail(kind, label, f"exit {got!r}, expected {code}: "
                              f"{err.getvalue().strip()[:200]}")
        try:
            return check(out.getvalue(), *texts)
        except Exception as exc:           # malformed output fails the check
            return self._fail(kind, label, f"{type(exc).__name__}: {exc}")

    def skip(self, kind, label, reason):
        self.attempted[kind] += 1
        self._fail(kind, label, f"not run: {reason}")

    def _fail(self, kind, label, message):
        self.failed[kind] += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind} {label}: {message}")
        return None


def use_sources() -> bool:
    """Put src/ first on the import path; False (with a message) if the
    checkout has no strippack sources."""
    if not (SRC / "strippack" / "cli.py").is_file():
        print(f"error: no strippack sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def import_program():
    """Fresh import of the package from src/; returns strippack.cli.main."""
    for name in [m for m in sys.modules
                 if m == "strippack" or m.startswith("strippack.")]:
        del sys.modules[name]
    cli = importlib.import_module("strippack.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"strippack imported from {cli.__file__}, not {SRC}")
    return cli.main


def setup(workload, seed, work, speed):
    """Import, input generation, instance files and a warm-up round of every
    operation kind on a tiny instance; returns (main, instances)."""
    main = import_program()
    instances = workloads.make_instances(workload, seed, work)
    tiny = work / "warmup.txt"
    sides = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(3, 8),
             Fraction(1, 8), Fraction(1, 16)]
    tiny.write_text("".join(workloads.fmt(a) + "\n" for a in sides))
    warm = Runner(main, speed)
    workloads.instance_ops(warm, workloads.Instance("warmup", sides, tiny),
                           True, seed, work)
    for strategy in workloads.ADVERSARY_KINDS:
        workloads.adversary_op(warm, strategy, 1, work)
    workloads.killer_op(warm, 4)
    if warm.failures:
        print("warm-up failures: " + "; ".join(warm.failures), file=sys.stderr)
    return main, instances


def play(runner, plan, instances, seed, work, rounds=None, seconds=None):
    """Whole rounds: exactly ``rounds``, or the number whose raw time ends
    nearest to ``seconds`` (at least one).  Returns the (start, end) marks
    of each."""
    speed = runner.speed
    marks = []
    while True:
        start = speed.now()
        workloads.run_round(runner, plan, instances, seed, work)
        marks.append((start, speed.now()))
        elapsed = (marks[-1][1][0] - marks[0][0][0]) / 1e9
        if rounds is not None:
            if len(marks) == rounds:
                return marks
        elif elapsed * (1 + 1 / (2 * len(marks))) >= seconds:
            return marks


def tail(samples):
    """Highest percentile with ten samples beyond it (40 or more samples)."""
    if len(samples) < 40:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    return {"percentile": round(100 * (n - 10) / n, 2),
            "value": ordered[n - 11]}


def per_kind(runner, speed):
    out = {}
    for kind in KINDS:
        marks = runner.intervals[kind]
        samples = [speed.seconds(a, b) for a, b in marks]
        raw = [(b[0] - a[0] - (b[1] - a[1])) / 1e9 for a, b in marks]
        out[kind] = {"attempted": runner.attempted[kind],
                     "failed": runner.failed[kind],
                     "samples": len(samples),
                     "median_s": statistics.median(samples) if samples else None,
                     "raw_median_s": statistics.median(raw) if raw else None,
                     "tail": tail(samples), "samples_s": samples}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        return 2
    plan = workloads.PLANS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, plan, work) -> int:
    traced = None
    with Speed() as speed:
        setups = []
        for _ in range(SETUP_REPS):
            start = speed.now()
            program, instances = setup(args.workload, args.seed, work, speed)
            setups.append((start, speed.now()))
        plain = Runner(program, speed)
        if args.trace:
            traced, tracer = Runner(program, speed), layers.Tracer()
            rounds, traced_rounds = [], []
            for _ in range(plan.trace_rounds):
                rounds += play(plain, plan, instances, args.seed, work,
                               rounds=1)
                undo = layers.install(tracer)
                try:
                    traced_rounds += play(traced, plan, instances, args.seed,
                                          work, rounds=1)
                finally:
                    layers.uninstall(undo)
        else:
            rounds = play(plain, plan, instances, args.seed, work,
                          seconds=args.seconds)
    setup_s = [speed.seconds(a, b) for a, b in setups]
    walls = [speed.seconds(a, b) for a, b in rounds]
    kinds = per_kind(plain, speed)

    if traced:
        if traced.digests != plain.digests:
            traced._fail("trace", "digests",
                         "traced outputs differ from untraced ones")
        traced_walls = [speed.seconds(a, b) for a, b in traced_rounds]
        overhead = statistics.mean(t - u for t, u in zip(traced_walls, walls))
        scale = statistics.mean(speed.factor(a, b) for a, b in traced_rounds)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in tracer.metrics(overhead, scale).items()}
    else:
        metrics = {f"{k}_s": {"value": kinds[k]["median_s"], "unit": "s"}
                   for k in KINDS}
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024, "unit": "MB"}

    runners = [plain] + ([traced] if traced else [])
    attempted = sum(sum(r.attempted.values()) for r in runners)
    failed = sum(sum(r.failed.values()) for r in runners)
    digests = dict(sorted(plain.digests.items()))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(walls), "round_walls_s": walls,
        "traced_round_walls_s": traced_walls if traced else None,
        "setup_s": setup_s, "kinds": kinds,
        "traced_kinds": per_kind(traced, speed) if traced else None,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "speed_factors": {"samples": len(speed.factors),
                          "median": statistics.median(speed.factors),
                          "min": min(speed.factors),
                          "max": max(speed.factors)},
        "digest": hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16],
        "digests": digests, "failures": sum((r.failures for r in runners), []),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "ratio" if metric == "holes.builds_per_final" else "count"


if __name__ == "__main__":
    sys.exit(main())
