"""``run`` checks and writes a packing straight from the strategy's lattice.

``recheck_packing`` replays the packing's own items and lattice rects, and
``placements_csv`` prints each corner from its lattice integer through
``numbers.format_units``.  Both are compared with the route they replace,
a ``Placement`` per square: ``verify_packing`` on the placements, and
``format_scalar`` on their Fractions.  The families are the first 100
corpus instances, the structured families, the killer, a prime family that
rescales between squares, non-dyadic sides, and packings with squares on
both axes.  A strategy that places a square wrongly fails ``run`` with the
check line of the placement route, and ``run --csv`` builds no
``Placement`` and converts no value beyond what packing converts;
``--svg`` adds neither."""

from fractions import Fraction as F

import pytest

from conftest import (items, nondyadic_items, packing_of, placements,
                      random_items)
from strippack.bottomleft import BottomLeftState
from strippack.cli import STRATEGIES, main
from strippack.harness import (instance_text, parse_instance,
                               parse_placements_csv, placements_csv)
from strippack.numbers import format_scalar, format_units
from strippack.packing import (PackingError, SquareItem, pack,
                               recheck_packing, verify_packing)
from strippack.slots import SlotState, slot_killer_instance
from test_families import FAMILIES, family_items
from test_lattice import corpus_items, prime_items


def fraction_csv(p) -> str:
    """The CSV as written from the ``Placement``s."""
    lines = ["id,side,x,y"]
    for pl in placements(p):
        lines.append(",".join((str(pl.item.index), format_scalar(pl.item.side),
                               format_scalar(pl.x), format_scalar(pl.y))))
    return "\n".join(lines) + "\n"


def instances(kind: str):
    if kind == "corpus":
        return [corpus_items(s) for s in range(100)]
    if kind == "families":
        return [family_items(f, s) for f in sorted(FAMILIES) for s in range(5)]
    if kind == "killer":
        return [slot_killer_instance(6, F(1, 4096), n) for n in (64, 256)]
    if kind == "prime":
        return [prime_items(60)]
    if kind == "nondyadic":
        return [nondyadic_items(s) for s in range(3)]
    return [[], items(1), items("1/2", "1/2", "3/5"),
            items("1/4", "1/4", "1", "1/4"), items(*["1/3"] * 7)]


KINDS = ["corpus", "families", "killer", "prime", "nondyadic", "axes"]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("kind", KINDS)
def test_csv_and_verdict_equal_the_placement_route(kind, name):
    for seq in instances(kind):
        p = pack(STRATEGIES[name], seq)
        csv = placements_csv(p)
        assert csv == fraction_csv(p)
        assert recheck_packing(p) is None
        assert verify_packing(seq, placements(p)) is None
        if kind == "axes" and seq:
            assert f"\n1,{format_scalar(seq[0].side)},0/1,0/1\n" in csv


def test_invalid_packings_get_the_verifier_verdict():
    # hand-built packings that break each rule, one at a later step after a
    # rescale; the replay of the rects names the same rule and step
    cases = [([("1/2", 0, 0), ("1/2", "1/4", 0)], "overlap at step 2"),
             ([("1/2", 0, "1/3")], "unsupported at step 1"),
             ([("1/4", 0, 0), ("1/4", "1/4", 0), ("1", 0, "1/4"),
               ("1/5", "1/2", 0)], "unreachable at step 4"),
             ([("1/2", 0, 0), ("1/3", "2/3", 0), ("1/7", "3/5", 0)],
              "overlap at step 3"),
             ([("1/2", "3/4", 0)], "overlap at step 1")]
    for coords, want in cases:
        p = packing_of(coords)
        assert recheck_packing(p) == want
        assert verify_packing(p.items, placements(p)) == want


def test_recheck_shares_nothing_but_rects():
    # the replay builds its own lattice and skyline: the packing's lattice
    # keeps its scale, its rects and the skyline it had
    p = pack(SlotState, prime_items(30))
    scale, rects = p.lattice()
    before, sky = list(rects), p.skyline()
    assert recheck_packing(p) is None
    assert p.lattice() == (scale, before) and p.skyline() is sky


@pytest.mark.parametrize("v, scale", [(0, 1), (0, 7), (3, 12), (-6, 4),
                                      (12, 12), (2 ** 70 * 3, 2 ** 72 * 9),
                                      (1, 1)])
def test_format_units(v, scale):
    assert format_units(v, scale) == format_scalar(F(v, scale))


def test_parse_reuses_the_instance_squares():
    # a row with the instance's id and side holds the instance's own square;
    # any other row a square of its own, which the replay then refuses
    seq = items("1/2", "1/2", "3/5")
    p = pack(BottomLeftState, seq)
    pls = parse_placements_csv(placements_csv(p), seq)
    assert all(pl.item is it for pl, it in zip(pls, seq))
    assert pls == list(placements(p))
    text = placements_csv(p).replace("\n2,1/2,", "\n2,1/3,")
    pls = parse_placements_csv(text, seq)
    assert pls[1].item == SquareItem(2, F(1, 3)) and pls[1].item is not seq[1]
    with pytest.raises(PackingError, match=r"^item mismatch at index 2$"):
        verify_packing(seq, pls)


class Faulty(BottomLeftState):
    """BottomLeft, but square ``at`` goes to the corner ``(x, y)``; its side
    is converted with the corner, so a new denominator rescales."""

    at, x, y = 0, F(0), F(0)

    def place(self, item):
        if item.index != self.at:
            return super().place(item)
        s, x, y = self.packing.units(item.side, self.x, self.y)
        rect = (x, x + s, y, y + s)
        self.packing = self.packing.extended(item, rect)
        return rect


FAULTS = {  # a square over square 1, one floating, one sealed under a bar
    "overlap at step 2": (2, F(0), F(0)),
    "unsupported at step 1": (1, F(0), F(1, 3)),
    "unreachable at step 4": (4, F(1, 2), F(0)),
}


@pytest.mark.parametrize("want", sorted(FAULTS))
def test_faulty_strategy_fails_run(want, tmp_path, monkeypatch, capsys):
    fault = type("Fault", (Faulty,), dict(zip(("at", "x", "y"), FAULTS[want])))
    inst, csv = tmp_path / "bar.txt", tmp_path / "out.csv"
    inst.write_text("1/4\n1/4\n1\n1/4\n")
    seq = parse_instance(inst.read_text())
    assert verify_packing(seq, placements(pack(fault, seq))) == want
    monkeypatch.setitem(STRATEGIES, "bottomleft", fault)
    assert main(["run", "--strategy", "bottomleft", "--input", str(inst),
                 "--csv", str(csv)]) == 1
    assert capsys.readouterr().out == f"CHECK run-self-verify FAIL {want}\n"
    assert not csv.exists()


class TestRunWork:
    """Growth gate: ``run --csv`` builds no ``Placement`` on the ladder, and
    converts exactly what packing alone converts, so the self-check and the
    CSV convert nothing.  ``--svg`` builds none either, and adds no
    conversion to ``run --csv`` or to either analysis."""

    @pytest.mark.parametrize("n", [120, 480])
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_run_csv(self, built, conversions, tmp_path, capsys, name, n):
        inst, csv = tmp_path / "ladder.txt", tmp_path / "out.csv"
        inst.write_text(instance_text(random_items(f"ladder:1:{n}", n)))
        p = pack(STRATEGIES[name], parse_instance(inst.read_text()))
        alone = conversions["units"]
        assert recheck_packing(p) is None
        assert conversions["units"] == alone and built["placements"] == 0
        conversions.update(units=0)
        assert main(["run", "--strategy", name, "--input", str(inst),
                     "--csv", str(csv)]) == 0
        assert conversions["units"] == alone and built["placements"] == 0
        assert capsys.readouterr().out == f"height {format_scalar(p.height)}\n"
        assert csv.read_text() == fraction_csv(p)


    @pytest.mark.parametrize("n", [120, 480])
    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_svg(self, built, conversions, tmp_path, capsys, command, name,
                 n):
        inst, svg = tmp_path / "ladder.txt", tmp_path / "out.svg"
        inst.write_text(instance_text(random_items(f"ladder:1:{n}", n)))
        argv = [command, "--strategy", name, "--input", str(inst)]
        if command == "run":
            argv += ["--csv", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        plain, alone = capsys.readouterr().out, conversions["units"]
        conversions.update(units=0)
        assert main(argv + ["--svg", str(svg)]) == 0
        assert conversions["units"] == alone and built["placements"] == 0
        assert capsys.readouterr().out == plain
        assert svg.read_text().endswith("</svg>\n")
