"""The benchmark's workloads: seeded inputs and the operations of one round.

Every workload runs every operation kind, so every end-to-end metric is
measured on every workload; the workload decides the inputs and how often
each kind recurs in a round.  Inputs come only from the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

GRID = 2 ** 20
MIN_SIDE_NUM = GRID // 64              # sides on the 2^-20 grid in [1/64, 1]
ONE = Fraction(1)
EPS = Fraction(1, 100)                 # the acceptance suite's epsilon
KILLER_K, KILLER_DELTA = 6, Fraction(1, 4096)
SHIFT = Fraction(1, 32)                # corruption offset, as in acceptance 8


@dataclass
class Instance:
    label: str
    sides: list[Fraction]
    path: Path


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def random_sides(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(MIN_SIDE_NUM, GRID), GRID) for _ in range(n)]


def corpus_sides(s: int) -> list[Fraction]:
    """Acceptance corpus instance s: 30 sides, generator seed 1_000_000 + s."""
    return random_sides(random.Random(1_000_000 + s), 30)


def adversary_sides(rng: random.Random, iterations: int) -> list[Fraction]:
    """Squares of the adversary's vocabulary: half the iterations of type I
    (1/4, 1/4, 3/4+eps), half of type II (1/4, 1/4, 1/2+eps, 1/2, 1/2), in
    seeded order."""
    q = Fraction(1, 4)
    kinds = ["I", "II"] * (iterations // 2)
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "I":
            out += [q, q, 3 * q + EPS]
        else:
            out += [q, q, 2 * q + EPS, 2 * q, 2 * q]
    return out


def level_side(rng: random.Random, k: int) -> Fraction:
    """A grid side a with 2^-(k+1) < a <= 2^-k, i.e. rounded to level k."""
    return Fraction(rng.randint((GRID >> (k + 1)) + 1, GRID >> k), GRID)


def deep_sides(rng: random.Random) -> list[Fraction]:
    """Eight squares at shallow levels, then four at levels 10-13: the slot
    strategy builds a dense 2^k table for each new level it meets."""
    shallow = [level_side(rng, k) for k in (1, 2, 3, 3, 4, 4, 5, 5)]
    deep = [level_side(rng, k) for k in (10, 11, 12, 13)]
    rng.shuffle(shallow)
    rng.shuffle(deep)
    return shallow + deep


@dataclass(frozen=True)
class Plan:
    """What one workload runs.  Every round takes each of the ``count``
    instances through the per-instance pipeline, with ``slot_analyses``
    runs of ``analyze --strategy slot``, so every run times the same mix;
    it also runs the adversary (``adversary_m`` iterations) with each
    strategy ``adversary_reps`` times and the killer (acceptance k and
    delta, ``killer_n`` squares) ``killer_reps`` times.  A traced run
    plays ``trace_rounds`` rounds, each untraced and then traced."""

    count: int
    corrupt: bool
    slot_analyses: int
    adversary_m: int
    adversary_reps: int
    killer_n: int
    killer_reps: int
    trace_rounds: int


PLANS = {
    "corpus": Plan(count=10, corrupt=True, slot_analyses=1, adversary_m=6,
                   adversary_reps=5, killer_n=64, killer_reps=5,
                   trace_rounds=2),
    "large": Plan(count=3, corrupt=True, slot_analyses=3, adversary_m=10,
                  adversary_reps=6, killer_n=512, killer_reps=6,
                  trace_rounds=2),
    "adversary": Plan(count=20, corrupt=False, slot_analyses=1,
                      adversary_m=100, adversary_reps=1, killer_n=128,
                      killer_reps=20, trace_rounds=1),
    "slot-deep": Plan(count=7, corrupt=False, slot_analyses=1, adversary_m=6,
                      adversary_reps=3, killer_n=4096, killer_reps=1,
                      trace_rounds=2),
}


def make_instances(workload: str, seed: int, work: Path) -> list[Instance]:
    """Generate the workload's instances and write their files.

    ``corpus`` is the start of the acceptance corpus, ``large`` a fixed
    panel of 100-square instances and ``slot-deep`` a fixed panel of deep
    instances, so every run times the same packings; in ``corpus`` and
    ``large`` the seed picks the corruptions.  ``adversary`` draws its
    instances from Random("adversary:<seed>:<i>")."""
    made = []
    for i in range(PLANS[workload].count):
        if workload == "corpus":
            made.append((f"corpus-{i}", corpus_sides(i)))
        elif workload == "large":
            rng = random.Random(f"large:{i}")
            made.append((f"large-{i}", random_sides(rng, 100)))
        elif workload == "slot-deep":
            rng = random.Random(f"slot-deep:{i}")
            made.append((f"slot-deep-{i}", deep_sides(rng)))
        else:
            rng = random.Random(f"adversary:{seed}:{i}")
            made.append((f"adversary-{seed}-{i}", adversary_sides(rng, 8)))
    out = []
    for label, sides in made:
        path = work / f"{label}.txt"
        path.write_text("".join(fmt(a) + "\n" for a in sides))
        out.append(Instance(label, sides, path))
    return out


# ---------------------------------------------------------------------------
# corrupted placements with a verdict known by construction
# ---------------------------------------------------------------------------

def csv_text(rows: list[tuple]) -> str:
    return "".join([checks.CSV_HEADER + "\n"] + [
        f"{i},{fmt(a)},{fmt(x)},{fmt(y)}\n"
        for i, (a, x, y) in enumerate(rows, start=1)])


def corrupt_overlap(rows, rng: random.Random):
    """Move a square 1/32 into an earlier neighbour it touches."""
    moves = []
    for j, (a, x, y) in enumerate(rows):
        for b, u, v in rows[:j]:
            if u + b == x and min(v + b, y + a) > max(v, y):
                moves.append((j, (a, x - SHIFT, y)))
                break
            if v + b == y and min(u + b, x + a) > max(u, x):
                moves.append((j, (a, x, y - SHIFT)))
                break
    checks.require(bool(moves), "no touching pair to corrupt")
    j, row = rng.choice(moves)
    out = list(rows)
    out[j] = row
    return out, f"overlap at step {j + 1}"


def corrupt_float(rows, rng: random.Random):
    """Lift the top square 1/32 above the packing."""
    height = max(y + a for a, _, y in rows)
    j = max(range(len(rows)), key=lambda i: (rows[i][2] + rows[i][0], i))
    out = list(rows)
    a, x, _ = rows[j]
    out[j] = (a, x, height + SHIFT)
    return out, f"unsupported at step {j + 1}"


def corrupt_sealed(rows, rng: random.Random):
    """Seal a cavity above the packing with five more squares, the last a
    quarter square inside the cavity."""
    h = max(y + a for a, _, y in rows)
    q = Fraction(1, 4)
    inside = Fraction(rng.randint(16, 32), 64)       # x in [1/4, 1/2]
    extra = [(ONE, 0, h), (q, 0, h + 1), (q, 3 * q, h + 1), (ONE, 0, h + 5 * q),
             (q, inside, h + 1)]
    extra = [(a, Fraction(x), Fraction(y)) for a, x, y in extra]
    return list(rows) + extra, f"unreachable at step {len(rows) + 5}"


CORRUPTIONS = {"overlap": corrupt_overlap, "float": corrupt_float,
               "sealed": corrupt_sealed}


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def instance_ops(runner, inst: Instance, corrupt: bool, seed: int,
                 work: Path, slot_analyses: int = 1) -> None:
    """run (both strategies) -> verify the BottomLeft CSV (and, with
    ``corrupt``, three corrupted copies) -> analyze (BottomLeft once, slot
    ``slot_analyses`` times)."""
    got = {}
    for strategy, kind in (("bottomleft", "run_bl"), ("slot", "run_slot")):
        csv = work / f"{inst.label}.{strategy}.csv"
        got[kind] = runner.op(
            kind, inst.label,
            ["run", "--strategy", strategy, "--input", inst.path, "--csv", csv],
            lambda out, text, slot=(kind == "run_slot"):
                checks.check_run(out, text, inst.sides, slot),
            outputs=[csv])
    bl_csv = work / f"{inst.label}.bottomleft.csv"
    runner.op("verify", inst.label,
              ["verify", "--input", inst.path, "--placements", bl_csv],
              lambda out: checks.check_verify(out, "valid"))
    if corrupt:
        rng = random.Random(f"corrupt:{seed}:{inst.label}")
        for name, corruption in CORRUPTIONS.items():
            label = f"{inst.label} {name}"
            if got["run_bl"] is None:
                runner.skip("verify", label, "no BottomLeft packing to corrupt")
                continue
            rows, path = got["run_bl"][1], inst.path
            try:
                bad, verdict = corruption(rows, rng)
            except checks.CheckError as exc:
                runner.skip("verify", label, str(exc))
                continue
            if name == "sealed":
                path = work / f"{inst.label}.sealed.txt"
                path.write_text("".join(fmt(a) + "\n" for a, _, _ in bad))
            csv = work / f"{inst.label}.{name}.csv"
            csv.write_text(csv_text(bad))
            runner.op("verify", label,
                      ["verify", "--input", path, "--placements", csv],
                      lambda out, v=verdict: checks.check_verify(out, v),
                      code=1)
    for strategy, kind, check, times in (
            ("bottomleft", "analyze_bl", checks.check_analyze_bl, 1),
            ("slot", "analyze_slot", checks.check_analyze_slot,
             slot_analyses)):
        run = got["run_bl" if strategy == "bottomleft" else "run_slot"]
        for _ in range(times):
            runner.op(kind, inst.label,
                      ["analyze", "--strategy", strategy, "--input",
                       inst.path],
                      lambda out, c=check, r=run: c(out, inst.sides, r[0]))


ADVERSARY_KINDS = {"bottomleft": "adversary_bl", "slot": "adversary_slot"}


def adversary_op(runner, strategy: str, m: int, work: Path) -> None:
    report = work / f"adversary-{strategy}-{m}.txt"
    runner.op(ADVERSARY_KINDS[strategy], f"m={m}",
              ["adversary", "--strategy", strategy, "--iterations", m,
               "--epsilon", fmt(EPS), "--report", report],
              lambda out, text: checks.check_adversary(out, text, m, EPS),
              outputs=[report])


def killer_op(runner, n: int) -> None:
    runner.op("killer", f"n={n}",
              ["killer", "--k", KILLER_K, "--delta", fmt(KILLER_DELTA),
               "--n", n],
              lambda out: checks.check_killer(out, KILLER_K, KILLER_DELTA, n))


def run_round(runner, plan: Plan, instances: list[Instance], seed: int,
              work: Path) -> None:
    """The round's tasks, each kind spread evenly over the round, so that
    a few slow seconds of the machine touch only some samples of a kind."""
    tasks = [[lambda i=inst: instance_ops(runner, i, plan.corrupt, seed,
                                          work, plan.slot_analyses)
              for inst in instances],
             [lambda s=strategy: adversary_op(runner, s, plan.adversary_m,
                                              work)
              for _ in range(plan.adversary_reps) for strategy in
              ADVERSARY_KINDS],
             [lambda: killer_op(runner, plan.killer_n)] * plan.killer_reps]
    spread = [((j + 0.5) / len(kind), task)
              for kind in tasks for j, task in enumerate(kind)]
    for _, task in sorted(spread, key=lambda pair: pair[0]):
        task()
