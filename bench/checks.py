"""Output checks the benchmark computes itself.

Nothing here imports strippack or trusts its verdicts: every check re-reads
what an operation printed or wrote and recomputes the property from the
exact rationals.  A failed check raises CheckError; the runner counts the
operation as failed.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

ONE = Fraction(1)
EIGHT_THIRTEENTHS = Fraction(8, 13)
CSV_HEADER = "id,side,x,y"


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def dyadic_width(a: Fraction) -> Fraction:
    """The power of 1/2 with a <= w < 2a."""
    require(0 < a <= ONE, f"side {a} outside (0, 1]")
    w = ONE
    while w / 2 >= a:
        w /= 2
    return w


def parse_packing(csv_text: str, sides: list[Fraction]) -> list[tuple]:
    """(side, x, y) per square, in arrival order, from an ``id,side,x,y`` CSV."""
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    require(bool(lines) and lines[0] == CSV_HEADER, "missing CSV header")
    rows = []
    for expect_id, (line, side) in enumerate(zip(lines[1:], sides), start=1):
        fields = line.split(",")
        require(len(fields) == 4, f"bad CSV row {line!r}")
        require(int(fields[0]) == expect_id, f"row {expect_id}: wrong id")
        a, x, y = (Fraction(f) for f in fields[1:])
        require(a == side, f"square {expect_id}: side {a} != instance {side}")
        rows.append((a, x, y))
    require(len(lines) - 1 == len(sides),
            f"{len(lines) - 1} CSV rows for {len(sides)} squares")
    return rows


def check_packing(rows: list[tuple]) -> Fraction:
    """Pairwise overlap-freeness, strip containment and gravity support
    against earlier squares; returns the packing height."""
    for j, (a, x, y) in enumerate(rows, start=1):
        require(x >= 0 and x + a <= ONE and y >= 0,
                f"square {j} leaves the strip")
        supported = y == 0
        for i, (b, u, v) in enumerate(rows[:j - 1], start=1):
            require(not (u < x + a and x < u + b and v < y + a and y < v + b),
                    f"squares {i} and {j} overlap")
            if v + b == y and u < x + a and x < u + b:
                supported = True
        require(supported, f"square {j} is not supported")
    return max((y + a for a, _, y in rows), default=Fraction(0))


def check_slot_alignment(rows: list[tuple]) -> None:
    for j, (a, x, _) in enumerate(rows, start=1):
        w = dyadic_width(a)
        require((x / w).denominator == 1,
                f"square {j}: x={x} is not a multiple of its width {w}")


def parse_height(stdout: str) -> Fraction:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    require(last.startswith("height "), f"no height line in {last!r}")
    return Fraction(last.split()[1])


def check_run(stdout: str, csv_text: str, sides: list[Fraction],
              slot: bool) -> tuple[Fraction, list[tuple]]:
    """A ``run`` operation: valid packing, reported height equals the CSV's.
    Returns the height and the parsed rows."""
    rows = parse_packing(csv_text, sides)
    height = check_packing(rows)
    if slot:
        check_slot_alignment(rows)
    require(parse_height(stdout) == height,
            f"reported height {parse_height(stdout)} != CSV height {height}")
    return height, rows


def check_verify(stdout: str, expected: str) -> None:
    """``expected`` is ``valid`` or ``<violation> at step <j>``."""
    require(stdout.strip() == expected,
            f"verifier said {stdout.strip()!r}, expected {expected!r}")


def check_lines_pass(stdout: str) -> None:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("CHECK ")]
    require(bool(lines), "no CHECK lines")
    for ln in lines:
        require(ln.split()[2] == "PASS", f"failing line {ln!r}")


def check_analyze_bl(stdout: str, sides: list[Fraction],
                     height: Fraction) -> None:
    """Hole areas sum to height - sum a^2; each hole within its bound; no
    square charged more than 5/2; every CHECK line passes."""
    check_lines_pass(stdout)
    hole_sum = Fraction(0)
    for ln in stdout.splitlines():
        if ln.startswith("hole "):
            fields = dict(tok.split("=", 1) for tok in ln.split()[2:])
            area, bound = Fraction(fields["area"]), Fraction(fields["bound"])
            require(0 < area <= bound, f"hole area {area} vs bound {bound}")
            hole_sum += area
        elif ln.startswith("square "):
            charge = Fraction(ln.split("charge=", 1)[1])
            require(charge <= Fraction(5, 2), f"charge {charge} > 5/2")
    area_sum = sum((a * a for a in sides), Fraction(0))
    require(hole_sum == height - area_sum,
            f"hole areas {hole_sum} != height - area {height - area_sum}")


def check_analyze_slot(stdout: str, sides: list[Fraction],
                       height: Fraction) -> None:
    """Per-square 8/13 bound and Theorem 2, recomputed from the reported
    charged areas (square n+1 is the side-1 closing square)."""
    check_lines_pass(stdout)
    closed = sides + [ONE]
    charged = Fraction(0)
    for ln in stdout.splitlines():
        if ln.startswith("square "):
            head, value = ln.split(": charged-area ")
            idx = int(head.split()[1])
            area = Fraction(value)
            require(1 <= idx <= len(closed), f"unknown square {idx}")
            require(area <= EIGHT_THIRTEENTHS * closed[idx - 1] ** 2,
                    f"square {idx} charged {area} > 8/13 a^2")
            charged += area
    area_sum = sum((a * a for a in sides), Fraction(0))
    require(height <= 2 * area_sum + charged,
            f"height {height} > 2*{area_sum} + {charged}")
    require(height <= 2 * area_sum + EIGHT_THIRTEENTHS * (area_sum + 1),
            f"height {height} breaks Theorem 2")


def check_killer(stdout: str, k: int, delta: Fraction, n: int) -> None:
    expected = ceil(Fraction(n, 2 ** (k - 1))) * (Fraction(1, 2 ** k) + delta)
    got = parse_height(stdout)
    require(got == expected, f"killer height {got} != {expected}")


def check_adversary(stdout: str, transcript: str, m: int,
                    eps: Fraction) -> None:
    """H_i >= 5i/4 - 1/4 after every iteration, the sides match each
    iteration's type, and the optimal height is m(1 + eps)."""
    lines = transcript.strip().splitlines()
    require(bool(lines) and lines[0] == f"epsilon {eps}", "bad transcript head")
    require(len(lines) == m + 1, f"{len(lines) - 1} iterations, expected {m}")
    q, h = Fraction(1, 4), Fraction(0)
    sides_of = {"I": [q, q, 3 * q + eps, 0, 0],
                "II": [q, q, 2 * q + eps, 2 * q, 2 * q]}
    for i, ln in enumerate(lines[1:], start=1):
        tok = ln.split()
        require(tok[:2] == ["iteration", str(i)] and tok[2] == "type"
                and tok[4] == "sides" and tok[10] == "height",
                f"bad transcript line {ln!r}")
        require([Fraction(s) for s in tok[5:10]] == sides_of.get(tok[3]),
                f"iteration {i}: sides do not match type {tok[3]}")
        h_next = Fraction(tok[11])
        require(h_next >= h, f"iteration {i}: height decreased")
        h = h_next
        require(h >= Fraction(5 * i - 1, 4), f"iteration {i}: H={h} < 5i/4-1/4")
    fields = {ln.split()[0]: ln.split()[1] for ln in stdout.splitlines() if ln}
    require(Fraction(fields["strategy-height"]) == h,
            "strategy height differs from the transcript")
    require(Fraction(fields["optimal-height"]) == m * (1 + eps),
            f"optimal height {fields['optimal-height']} != m(1+eps)")
    check_lines_pass(stdout)
