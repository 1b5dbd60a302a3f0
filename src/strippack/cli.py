"""Command-line interface.

Exit codes: 0 success, 1 verification or invariant failure (first failing
check named on stdout), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .adversary import adversary_run, optimal_packing_for_transcript
from .bottomleft import BottomLeftState
from .harness import (InstanceError, gen_random, instance_text, parse_instance,
                      parse_placements_csv, placements_csv, render_svg,
                      run_stats)
from .holes import AnalysisError, run_bottomleft_analysis
from .numbers import ScalarParseError, format_scalar, scalar
from .packing import PackingError, close_packing, pack, verify_packing
from .shadows import charge_map, check_slot_bounds
from .slots import SlotState, slot_killer_instance

STRATEGIES = {"bottomleft": BottomLeftState, "slot": SlotState}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_run(args) -> int:
    seq = parse_instance(_read(args.input))
    p = pack(STRATEGIES[args.strategy], seq)
    failure = verify_packing(seq, p.placements)
    if failure:
        print(f"CHECK run-self-verify FAIL {failure}")
        return 1
    if args.csv:
        _write(args.csv, placements_csv(p))
    if args.svg:
        _write(args.svg, render_svg(p))
    if args.stats:
        for line in run_stats(seq, p).lines():
            print(line)
    print(f"height {format_scalar(p.height)}")
    return 0


def cmd_verify(args) -> int:
    seq = parse_instance(_read(args.input))
    pls = parse_placements_csv(_read(args.placements), seq)
    failure = verify_packing(seq, pls)
    print(failure or "valid")
    return 1 if failure else 0


def cmd_analyze(args) -> int:
    seq = parse_instance(_read(args.input))
    p = pack(STRATEGIES[args.strategy], seq)
    if args.strategy == "bottomleft":
        try:
            analysis = run_bottomleft_analysis(p)
        except AnalysisError as exc:
            print(f"CHECK {exc.name} FAIL {exc}")
            print("instance:")
            sys.stdout.write(instance_text(seq))
            return 1
        if args.svg:
            _write(args.svg, render_svg(analysis.closed, analysis.holes))
        print(analysis.report())
        return 0 if analysis.ok else 1
    closed = close_packing(p)
    cm = charge_map(closed)
    checks = check_slot_bounds(closed, cm)
    if args.svg:
        _write(args.svg, render_svg(closed))
    for idx in sorted(cm.areas):
        print(f"square {idx}: charged-area {format_scalar(cm.areas[idx])}")
    for c in checks:
        print(c.line())
    return 0 if all(c.ok for c in checks) else 1


def cmd_adversary(args) -> int:
    eps = scalar(args.epsilon)
    transcript = adversary_run(STRATEGIES[args.strategy], args.iterations, eps)
    opt = optimal_packing_for_transcript(transcript)
    h = transcript.final_height
    m = args.iterations
    ratio = h / opt.height
    print(f"iterations {m}")
    print(f"strategy-height {format_scalar(h)} (~{float(h):.6g})")
    print(f"optimal-height {format_scalar(opt.height)} (~{float(opt.height):.6g})")
    print(f"ratio {format_scalar(ratio)} (~{float(ratio):.6g})")
    lemma8 = h >= Fraction(5, 4) * m - Fraction(1, 4)
    print(f"CHECK adversary-lemma8 {'PASS' if lemma8 else 'FAIL'} "
          f"{format_scalar(h)} >= 5/4*{m} - 1/4")
    if args.report:
        _write(args.report, transcript.serialize() + "\n")
    return 0 if lemma8 else 1


def cmd_killer(args) -> int:
    delta = scalar(args.delta)
    seq = slot_killer_instance(args.k, delta, args.n)
    p = pack(SlotState, seq)
    if args.stats:
        for line in run_stats(seq, p).lines():
            print(line)
    print(f"height {format_scalar(p.height)}")
    return 0


def cmd_gen_random(args) -> int:
    items = gen_random(args.n, args.seed, scalar(args.min), scalar(args.max))
    _write(args.out, instance_text(items))
    print(f"wrote {args.n} sides to {args.out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="strippack",
        description="Online square packing in a unit strip under Tetris "
                    "and gravity rules")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="pack an instance with a strategy")
    run.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    run.add_argument("--input", required=True)
    run.add_argument("--csv")
    run.add_argument("--svg")
    run.add_argument("--stats", action="store_true")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="verify a placements CSV")
    ver.add_argument("--input", required=True)
    ver.add_argument("--placements", required=True)
    ver.set_defaults(func=cmd_verify)

    ana = sub.add_parser("analyze", help="hole/charge or shadow analysis")
    ana.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    ana.add_argument("--input", required=True)
    ana.add_argument("--svg")
    ana.set_defaults(func=cmd_analyze)

    adv = sub.add_parser("adversary", help="adaptive lower-bound adversary")
    adv.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    adv.add_argument("--iterations", type=int, required=True)
    adv.add_argument("--epsilon", default="1/100")
    adv.add_argument("--report")
    adv.set_defaults(func=cmd_adversary)

    kil = sub.add_parser("killer", help="slot-strategy waste instance")
    kil.add_argument("--k", type=int, required=True)
    kil.add_argument("--delta", required=True)
    kil.add_argument("--n", type=int, required=True)
    kil.add_argument("--stats", action="store_true")
    kil.set_defaults(func=cmd_killer)

    gen = sub.add_parser("gen-random", help="random instance on the 2^-20 grid")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--min", default="1/64")
    gen.add_argument("--max", default="1")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_random)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InstanceError, ScalarParseError, PackingError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
