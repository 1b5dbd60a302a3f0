import argparse
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import items, packing_of
from strippack import cli as cli_module
from strippack import numbers
from strippack.bottomleft import BottomLeftState
from strippack.cli import main
from strippack.harness import (InstanceError, gen_random, instance_text,
                               parse_instance, parse_placements_csv,
                               placements_csv, render_svg, run_stats)
from strippack.holes import run_bottomleft_analysis
from strippack.numbers import ScalarParseError, format_scalar, scalar
from strippack.packing import PackingError, pack, verify_packing


class TestParseInstance:
    def test_fractions(self):
        seq = parse_instance("1/2\n1/2\n3/5\n")
        assert [it.side for it in seq] == [F(1, 2), F(1, 2), F(3, 5)]
        assert [it.index for it in seq] == [1, 2, 3]

    def test_decimal_and_comment(self):
        seq = parse_instance("0.25 # quarter\n\n# full line comment\n1\n")
        assert [it.side for it in seq] == [F(1, 4), F(1)]

    def test_side_above_one_rejected(self):
        with pytest.raises(InstanceError, match="line 1"):
            parse_instance("5/4\n")

    def test_garbage_rejected(self):
        with pytest.raises(InstanceError, match="line 2"):
            parse_instance("1/2\nbanana\n")

    def test_roundtrip(self):
        seq = items("1/2", "3/5")
        assert parse_instance(instance_text(seq)) == seq


class TestGenRandom:
    def test_deterministic(self):
        assert gen_random(10, 42) == gen_random(10, 42)
        assert gen_random(10, 42) != gen_random(10, 43)

    def test_sides_on_grid_and_in_range(self):
        for it in gen_random(200, 7, F(1, 64), F(1, 2)):
            assert F(1, 64) <= it.side <= F(1, 2)
            assert (it.side * 2 ** 20).denominator == 1

    def test_negative_n_rejected(self):
        with pytest.raises(InstanceError, match="n >= 0"):
            gen_random(-3, 1)
        assert gen_random(0, 1) == []


class TestPlacementsCsv:
    def test_format(self):
        p = pack(BottomLeftState, items(1))
        assert placements_csv(p) == "id,side,x,y\n1,1/1,0/1,0/1\n"

    def test_roundtrip_through_verify(self):
        seq = items("1/2", "1/2", "3/5")
        p = pack(BottomLeftState, seq)
        pls = parse_placements_csv(placements_csv(p), seq)
        assert verify_packing(seq, pls) is None

    def test_mismatch_rejected_by_the_verifier(self):
        # the CSV is read as it stands; the replay checks ids and sides
        seq = items("1/2")
        pls = parse_placements_csv("id,side,x,y\n1,1/3,0/1,0/1\n", seq)
        with pytest.raises(PackingError, match=r"^item mismatch at index 1$"):
            verify_packing(seq, pls)


class TestStats:
    def test_ratio_uses_max_of_area_and_side(self):
        seq = items("3/5")
        p = pack(BottomLeftState, seq)
        stats = run_stats(seq, p)
        assert stats.lower_bound == F(3, 5)      # side beats area 9/25
        assert stats.ratio == 1


class TestSvg:
    def test_deterministic_and_wellformed(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        one = render_svg(p)
        two = render_svg(p)
        assert one == two
        assert one.startswith('<?xml version="1.0"')
        assert one.count("<rect") == 1 + 3       # outline + squares
        assert one.rstrip().endswith("</svg>")

    def test_hole_overlay(self):
        p = pack(BottomLeftState, items("1/2", "1/2", "3/5"))
        ana = run_bottomleft_analysis(p)
        svg = render_svg(ana.closed, ana.holes)
        assert svg.count("fill-opacity") == len(
            [r for h in ana.holes for r in h.region()])


@pytest.fixture
def three(tmp_path: Path) -> Path:
    path = tmp_path / "three.txt"
    path.write_text("1/2\n1/2\n3/5\n")
    return path


class TestCli:
    def test_run_stats(self, three, capsys):
        assert main(["run", "--strategy", "bottomleft", "--input", str(three),
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "height 11/10" in out

    def test_run_verify_roundtrip(self, three, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["run", "--strategy", "bottomleft", "--input", str(three),
                     "--csv", str(csv)]) == 0
        assert main(["verify", "--input", str(three),
                     "--placements", str(csv)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_verify_rejects_mutation(self, three, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        main(["run", "--strategy", "bottomleft", "--input", str(three),
              "--csv", str(csv)])
        text = csv.read_text().replace("2,1/2,1/2,0/1", "2,1/2,15/32,0/1")
        csv.write_text(text)
        assert main(["verify", "--input", str(three),
                     "--placements", str(csv)]) == 1
        assert "overlap at step 2" in capsys.readouterr().out

    def test_analyze_both_strategies(self, three, capsys):
        assert main(["analyze", "--strategy", "bottomleft",
                     "--input", str(three)]) == 0
        assert "CHECK height-identity PASS" in capsys.readouterr().out
        assert main(["analyze", "--strategy", "slot",
                     "--input", str(three)]) == 0
        assert "CHECK slot-per-square PASS" in capsys.readouterr().out

    def test_adversary(self, capsys):
        assert main(["adversary", "--strategy", "bottomleft",
                     "--iterations", "4", "--epsilon", "1/100"]) == 0
        out = capsys.readouterr().out
        assert "strategy-height 126/25" in out
        assert "CHECK adversary-lemma8 PASS" in out

    def test_killer(self, capsys):
        assert main(["killer", "--k", "6", "--delta", "1/4096",
                     "--n", "64", "--stats"]) == 0
        assert "ratio 128/65" in capsys.readouterr().out

    def test_gen_random_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen-random", "--n", "6", "--seed", "3",
                     "--out", str(out)]) == 0
        seq = parse_instance(out.read_text())
        assert len(seq) == 6

    def test_gen_random_negative_n_exit_two(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen-random", "--n", "-3", "--seed", "1",
                     "--out", str(out)]) == 2
        assert "n >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_instance_runs_and_analyzes(self, tmp_path, capsys):
        out = tmp_path / "empty.txt"
        assert main(["gen-random", "--n", "0", "--seed", "1",
                     "--out", str(out)]) == 0
        assert out.read_text() == ""
        for strategy in ("bottomleft", "slot"):
            assert main(["run", "--strategy", strategy,
                         "--input", str(out)]) == 0
            assert "height 0" in capsys.readouterr().out
            assert main(["analyze", "--strategy", strategy,
                         "--input", str(out)]) == 0
            assert "FAIL" not in capsys.readouterr().out

    def test_svg_outputs(self, three, tmp_path):
        svg = tmp_path / "o.svg"
        assert main(["run", "--strategy", "slot", "--input", str(three),
                     "--svg", str(svg)]) == 0
        assert svg.read_text().startswith('<?xml')

    @pytest.mark.parametrize("strategy", ["bottomleft", "slot"])
    def test_analyze_unwritable_svg_prints_no_report(self, strategy, tmp_path,
                                                     capsys):
        """Both analyze kinds write the SVG before they print, as ``run``
        does, so a path that cannot be written is a usage error alone."""
        inst = tmp_path / "two.txt"
        inst.write_text("1/2\n1/2\n")
        assert main(["analyze", "--strategy", strategy, "--input", str(inst),
                     "--svg", str(tmp_path / "missing" / "o.svg")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_usage_error_exit_two(self, capsys):
        assert main(["run", "--strategy", "nope", "--input", "x"]) == 2

    def test_missing_file_exit_two(self, capsys):
        assert main(["run", "--strategy", "slot", "--input",
                     "/nonexistent/file.txt"]) == 2

    def test_directory_as_input_exit_two(self, tmp_path, capsys):
        assert main(["run", "--strategy", "bottomleft",
                     "--input", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_directory_as_placements_exit_two(self, three, tmp_path, capsys):
        assert main(["verify", "--input", str(three),
                     "--placements", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_bad_instance_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("5/4\n")
        assert main(["run", "--strategy", "slot", "--input", str(bad)]) == 2

    def test_analyze_overlap_names_the_squares(self, three, monkeypatch,
                                               capsys):
        """Overlapping squares fail hole extraction as an analysis check
        that names them and the x, with the instance echoed, not as a usage
        error."""
        overlapping = packing_of([("1/2", 0, 0), ("1/2", "1/4", "1/4")])
        monkeypatch.setattr(cli_module, "pack", lambda *_: overlapping)
        assert main(["analyze", "--strategy", "bottomleft",
                     "--input", str(three)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("CHECK overlap FAIL overlap: obstacles 0 and 1 "
                              "overlap at x = 1\ninstance:\n")

    def test_run_self_verify_failure_writes_no_csv(self, tmp_path, monkeypatch,
                                                   capsys):
        """A packing that fails its own replay exits 1 with the first
        broken rule as a check line, before any output file is written."""
        overlapping = packing_of([("1/2", 0, 0), ("1/2", "1/4", 0)])
        monkeypatch.setattr(cli_module, "pack", lambda *_: overlapping)
        inst, csv = tmp_path / "two.txt", tmp_path / "out.csv"
        inst.write_text("1/2\n1/2\n")
        assert main(["run", "--strategy", "bottomleft", "--input", str(inst),
                     "--csv", str(csv)]) == 1
        assert capsys.readouterr().out == \
            "CHECK run-self-verify FAIL overlap at step 2\n"
        assert not csv.exists()


class TestParserBuiltOnce:
    def test_two_calls_build_one_parser(self, three, monkeypatch, capsys):
        """Building the parser took about half of a 30-square ``run``;
        a process builds it at most once, whichever call comes first."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(2):
            assert main(["run", "--strategy", "slot",
                         "--input", str(three)]) == 0
        assert capsys.readouterr().out == "height 11/10\n" * 2
        assert progs.count("strippack") <= 1


class TestInputErrors:
    """Each input error of the CLI exits 2 with its message on stderr and
    nothing on stdout."""

    @staticmethod
    def assert_rejected(argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("lo, hi, message", [
        ("1/2", "1/4", "need 0 < min <= max <= 1"),
        ("1/3", "1/3", "no grid point in the requested range")])
    def test_gen_random_range(self, tmp_path, capsys, lo, hi, message):
        out = tmp_path / "g.txt"
        self.assert_rejected(["gen-random", "--n", "3", "--seed", "1",
                              "--min", lo, "--max", hi, "--out", str(out)],
                             message, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ("id,side,x\n", "placements CSV must start with 'id,side,x,y'"),
        ("id,side,x,y\n1,1/2,0\n", "line 2: expected 4 fields"),
        ("id,side,x,y\n1,1/2,0,0\n2,1/2,1/2,0\n",
         "2 placements for 3 squares"),
        ("id,side,x,y\n1,3/2,0,0\n", "line 2: side 3/2 outside (0, 1]"),
        ("id,side,x,y\n1,1/2,0,0\n2,1/2,1/2,0\n3,1/3,0,1/2\n",
         "item mismatch at index 3")])
    def test_verify_placements(self, three, tmp_path, capsys, rows, message):
        csv = tmp_path / "p.csv"
        csv.write_text(rows)
        self.assert_rejected(["verify", "--input", str(three),
                              "--placements", str(csv)], message, capsys)

    @pytest.mark.parametrize("text, message", [
        ("1/2\n3/2\n", "line 2: side 3/2 outside (0, 1]"),
        ("0\n", "line 1: side 0 outside (0, 1]"),
        ("1/2\nbanana\n",
         "line 2: bad scalar token 'banana': Invalid literal for Fraction: "
         "'banana'")])
    def test_instance(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        self.assert_rejected(["run", "--strategy", "slot", "--input",
                              str(path)], message, capsys)

    @pytest.mark.parametrize("flags, message", [
        (["--iterations", "0"], "need at least one iteration"),
        (["--iterations", "4", "--epsilon", "1/4"],
         "epsilon must be in (0, 1/4)"),
        (["--iterations", "4", "--epsilon", " "], "empty scalar token")])
    def test_adversary(self, capsys, flags, message):
        self.assert_rejected(["adversary", "--strategy", "bottomleft", *flags],
                             message, capsys)

    def test_killer_k_zero(self, capsys):
        self.assert_rejected(["killer", "--k", "0", "--delta", "1/4096",
                              "--n", "4"], "need k >= 1 and n >= 1", capsys)

    @pytest.mark.parametrize("k, delta", [("20000", "1/3"), ("3", "0"),
                                          ("3", "1/7")])
    def test_killer_delta_out_of_range(self, capsys, k, delta):
        """The range is read from k and delta alone, so at k = 20000 the
        error names the delta, not the side's digit count."""
        self.assert_rejected(
            ["killer", "--k", k, "--delta", delta, "--n", "1"],
            f"delta {delta} out of range: need 0 < delta <= 2^-{k}", capsys)


SRC = Path(__file__).resolve().parents[1] / "src"


def spawn(*argv: str):
    """Run the CLI in a fresh interpreter, killed after 10 s; returns the
    finished process and the wall seconds."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "strippack.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc, time.perf_counter() - start


def cli(*argv: str):
    """``spawn``'s exit code, stdout and wall seconds."""
    proc, wall = spawn(*argv)
    return proc.returncode, proc.stdout, wall


class TestHugeExponent:
    """A decimal exponent whose magnitude reaches the int-string digit limit
    (4300 by default) is rejected while parsing: ``Fraction`` would compute
    10**exp first, which takes seconds at 1e-10000000."""

    @pytest.mark.parametrize("token", ["1e-100000000", "1e100000000"])
    def test_instance_exits_two_fast(self, tmp_path, token):
        path = tmp_path / "one.txt"
        path.write_text(f"{token}\n")
        proc, wall = spawn("run", "--strategy", "bottomleft",
                           "--input", str(path))
        assert proc.returncode == 2 and wall < 2
        assert proc.stderr.startswith(f"error: line 1: bad scalar token "
                                      f"'{token}'")

    def test_limit_is_the_boundary(self):
        assert scalar("1e-4299") == F(1, 10 ** 4299)
        assert scalar("1E+0_4_299") == 10 ** 4299
        for token in ("1e-4300", "2.5e+4300", "1e0_4_300", "1e-" + "9" * 40):
            with pytest.raises(ScalarParseError, match="exponent"):
                scalar(token)
        assert parse_instance("1e-100\n")[0].side == F(1, 10 ** 100)

    def test_every_scalar_input(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        csv.write_text("id,side,x,y\n1,1/2,0,1e-99999\n")
        inst = tmp_path / "one.txt"
        inst.write_text("1/2\n")
        for argv in (["verify", "--input", str(inst), "--placements", str(csv)],
                     ["killer", "--k", "3", "--delta", "1e-99999", "--n", "1"],
                     ["adversary", "--strategy", "slot", "--iterations", "1",
                      "--epsilon", "1e-99999"],
                     ["gen-random", "--n", "1", "--seed", "1", "--min",
                      "1e-99999", "--out", str(tmp_path / "g.txt")],
                     ["gen-random", "--n", "1", "--seed", "1", "--max",
                      "1e-99999", "--out", str(tmp_path / "g.txt")]):
            assert main(argv) == 2, argv
            assert "exponent out of range" in capsys.readouterr().err


class TestIntegerTokens:
    """A ``p/q`` token of ASCII digits is read as ``Fraction(int(p),
    int(q))``; it gives the value and the error text of ``Fraction``'s
    string parser, and every other token takes that parser."""

    INTEGER_PATH = ["007/08", "0/5", "1/0", " 1/2 ", "1" * 4301 + "/3"]
    STRING_PATH = ["/3", "3/", "1/2/3", "+1/2", "-1/2", "1_0/3",
                   "\uff11/\uff12", "1e-4299"]

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of each ``Fraction`` call ``numbers`` makes."""
        seen = []

        def recording(*args):
            seen.append(args)
            return F(*args)
        monkeypatch.setattr(numbers, "Fraction", recording)
        return seen

    @staticmethod
    def strings(calls):
        return [a for args in calls for a in args if isinstance(a, str)]

    @pytest.mark.parametrize("token", INTEGER_PATH + STRING_PATH,
                             ids=lambda t: t if len(t) < 20 else f"{len(t)}ch")
    def test_same_value_or_message_as_fraction(self, token, calls):
        text = token.strip()
        try:
            want = F(text)
        except (ValueError, ZeroDivisionError) as exc:
            want = f"bad scalar token {text!r}: {exc}"
        try:
            got = scalar(token)
        except ScalarParseError as exc:
            got = str(exc)
        assert type(got) is type(want) and got == want
        assert self.strings(calls) == (
            [] if token in self.INTEGER_PATH else [text])

    def test_thousand_squares_pass_no_string(self, calls):
        seq = gen_random(1000, 5)
        assert parse_instance(instance_text(seq)) == seq
        rows = [f"{it.index},{format_scalar(it.side)},0/1,{it.index}/7"
                for it in seq]
        pls = parse_placements_csv("\n".join(["id,side,x,y"] + rows), seq)
        assert [pl.y for pl in pls] == [F(it.index, 7) for it in seq]
        assert len(calls) == 4000 and self.strings(calls) == []


class TestTinySides:
    """A slot side's level is bounded only by the size of the integers."""

    @pytest.fixture
    def tiny(self, tmp_path: Path) -> Path:
        path = tmp_path / "tiny.txt"
        path.write_text("1/2\n1e-100\n1/3\n1/2\n")
        return path

    def test_run_slot(self, tiny):
        code, out, wall = cli("run", "--strategy", "slot", "--input", str(tiny))
        assert code == 0 and wall < 2
        height = F(5, 6) + F(1, 10 ** 100)
        assert f"height {height.numerator}/{height.denominator}" in out

    def test_analyze_slot(self, tiny):
        code, out, wall = cli("analyze", "--strategy", "slot",
                              "--input", str(tiny))
        assert code == 0 and wall < 2
        assert "CHECK theorem2 PASS" in out

    def test_killer_level_59(self):
        code, out, wall = cli("killer", "--k", "60", "--delta",
                              f"1/{2 ** 70}", "--n", "8")
        assert code == 0 and wall < 2
        assert out == f"height 1025/{2 ** 70}\n"

    def test_single_side_two_to_minus_40(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text(f"1/{2 ** 40}\n")
        code, out, wall = cli("run", "--strategy", "slot", "--input", str(path))
        assert code == 0 and wall < 2
        assert out == f"height 1/{2 ** 40}\n"


class TestBottomLeftThousands:
    """A BottomLeft placement reads only the squares above the level that
    seals the packing off, so n in the thousands packs in about a second."""

    def test_adversary_1000_iterations(self):
        code, out, wall = cli("adversary", "--strategy", "bottomleft",
                              "--iterations", "1000")
        assert code == 0 and wall < 10
        assert "CHECK adversary-lemma8 PASS" in out

    def test_run_3000_squares(self, tmp_path):
        path = str(tmp_path / "n3000.txt")
        assert cli("gen-random", "--n", "3000", "--seed", "7",
                   "--out", path)[0] == 0
        code, out, wall = cli("run", "--strategy", "bottomleft",
                              "--input", path)
        assert code == 0 and wall < 10
        assert out.startswith("height ")


class TestSlotAnalysisThousands:
    """The charge map sweeps x once on the packing's lattice, so the slot
    analysis at n in the thousands takes about a second."""

    def test_analyze_2000_squares(self, tmp_path):
        path = str(tmp_path / "n2000.txt")
        assert cli("gen-random", "--n", "2000", "--seed", "7",
                   "--out", path)[0] == 0
        code, out, wall = cli("analyze", "--strategy", "slot",
                              "--input", path)
        assert code == 0 and wall < 10
        assert "CHECK theorem2 PASS" in out


class TestHoleAnalysisHundreds:
    """A split splices the parent hole's corners and floods no cells, so
    hole analysis at n in the hundreds takes about a second."""

    def test_analyze_480_squares(self, tmp_path):
        path = str(tmp_path / "n480.txt")
        assert cli("gen-random", "--n", "480", "--seed", "7",
                   "--out", path)[0] == 0
        code, out, wall = cli("analyze", "--strategy", "bottomleft",
                              "--input", path)
        assert code == 0 and wall < 10
        checks = [line for line in out.splitlines() if line.startswith("CHECK")]
        assert len(checks) == 7
        assert all(" PASS " in line for line in checks)


class TestHoleAnalysisThousands:
    """Raw holes come from one sweep over gap rects, with no cell grid, so
    the whole hole analysis at n in the thousands takes seconds and stays
    small.  The child reports its own peak RSS."""

    CHILD = ("import resource, sys\n"
             "from strippack.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "print(f'maxrss_kb {rss}')\n"
             "sys.exit(code)\n")

    def test_analyze_4000_squares(self, tmp_path):
        path = str(tmp_path / "n4000.txt")
        assert cli("gen-random", "--n", "4000", "--seed", "7",
                   "--out", path)[0] == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, "analyze", "--strategy",
             "bottomleft", "--input", path],
            capture_output=True, text=True, timeout=10, env=env)
        wall = time.perf_counter() - start
        assert proc.returncode == 0 and wall < 10, proc.stderr
        lines = proc.stdout.splitlines()
        checks = [line for line in lines if line.startswith("CHECK")]
        assert len(checks) == 7
        assert all(" PASS " in line for line in checks)
        rss_kb = int(lines[-1].removeprefix("maxrss_kb "))
        assert rss_kb < 150 * 1024

