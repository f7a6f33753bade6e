"""CLI subcommands and the exit-code contract."""

from __future__ import annotations

import gc
import io
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from oddtorus import cli, construct, discharge, embedding, solver
from oddtorus.cli import build_parser, main
from oddtorus.colouring import Colouring, nice_witness, odd_witness, proper_witness
from oddtorus.discharge import rule_transfers
from oddtorus.errors import ConstructionFailedError
from oddtorus.graphio import parse_colouring, parse_graph, write_colouring, write_graph
from oddtorus.torus import TorusParams, vertex_coords

from conftest import cycle_graph, path_graph, scrambled_torus


@pytest.fixture
def t464(tmp_path):
    path = tmp_path / "t464.og"
    assert main(["gen", "--m", "4", "--n", "6", "--t", "4", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_graph_file(self, t464):
        g = parse_graph(t464.read_text())
        assert g.vertex_count == 24
        assert g.edge_count == 72

    def test_not_simple_exits_two(self, tmp_path, capsys):
        code = main(["gen", "--m", "1", "--n", "4", "--t", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "not simple" in capsys.readouterr().err

    def test_k7_generation(self, tmp_path):
        path = tmp_path / "k7.og"
        assert main(["gen", "--m", "1", "--n", "7", "--t", "2", "--out", str(path)]) == 0
        g = parse_graph(path.read_text())
        assert g.edge_count == 21

    def test_io_failure_exits_three(self, tmp_path):
        out = tmp_path / "missing" / "x.og"
        assert main(["gen", "--m", "4", "--n", "6", "--t", "4", "--out", str(out)]) == 3


class TestColour:
    @pytest.mark.parametrize("m,n,t", [(7, 7, 5), (2, 5, 2), (1, 13, 4)])
    def test_reference_instances_verify(self, tmp_path, m, n, t):
        out = tmp_path / "c.col"
        code = main(["colour", "--m", str(m), "--n", str(n), "--t", str(t), "--out", str(out)])
        assert code == 0
        parse_colouring(out.read_text())

    def test_coordinates_printed(self, tmp_path, capsys):
        out = tmp_path / "c.col"
        main(["colour", "--m", "7", "--n", "7", "--t", "5", "--out", str(out)])
        printed = capsys.readouterr().out
        assert "(2,5)" in printed and "-> 9" in printed

    def test_not_simple_exits_two(self, tmp_path):
        assert main(["colour", "--m", "1", "--n", "4", "--t", "1", "--out", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize("m,n,t", [(7, 7, 5), (2, 5, 2), (1, 13, 4)])
    def test_stdout_colouring_verifies(self, tmp_path, capsys, m, n, t):
        # Without --out the colouring alone is on stdout; the report is on stderr.
        params = ["--m", str(m), "--n", str(n), "--t", str(t)]
        assert main(["colour", *params]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines()[-1] == "nice: yes"
        col, gp = tmp_path / "c.col", tmp_path / "g.og"
        col.write_text(out)
        assert main(["gen", *params, "--out", str(gp)]) == 0
        assert main(["verify", str(gp), str(col)]) == 0


class Writes(io.StringIO):
    """A text stream that counts its write calls."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def reference_colour_report(p: TorusParams) -> str:
    """colour's report as a print call per line writes it: the recoloured
    vertices for m >= 2, every vertex for m = 1, then the verdict."""
    out = io.StringIO()
    if p.m >= 2:
        for v, colour in sorted(construct.repairs(p).items()):
            i, j = vertex_coords(p, v)
            old = construct.base_colour(p.m, p.n, i, j)
            print(f"recoloured vertex {v} = ({i},{j}): {old} -> {colour}", file=out)
    else:
        c = construct.colour_torus(p)
        for v in sorted(c.assignment):
            i, j = vertex_coords(p, v)
            print(f"vertex {v} = ({i},{j}): colour {c[v]}", file=out)
    print("nice: yes", file=out)
    return out.getvalue()


class TestColourReport:
    """colour writes its report in one call, byte-identical to a print per
    line: on stderr without --out, on stdout with it."""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("m,n,t", [(1, 13, 4), (1, 7, 2), (2, 7, 3), (2, 5, 2), (4, 7, 2), (7, 7, 5)])
    def test_one_write_same_bytes(self, tmp_path, monkeypatch, m, n, t, to_file):
        p = TorusParams(m, n, t)
        stdout, stderr = Writes(), Writes()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        out = tmp_path / "c.col"
        argv = ["colour", "--m", str(m), "--n", str(n), "--t", str(t)]
        assert main(argv + ["--out", str(out)] if to_file else argv) == 0
        colouring, report = write_colouring(construct.colour_torus(p)), reference_colour_report(p)
        if to_file:
            assert out.read_text() == colouring
            assert (stdout.getvalue(), stdout.calls, stderr.getvalue()) == (report, 1, "")
        else:
            assert (stdout.getvalue(), stdout.calls) == (colouring, 1)
            assert (stderr.getvalue(), stderr.calls) == (report, 1)


class TestVerify:
    def test_valid_colouring(self, tmp_path, t464):
        col = tmp_path / "ok.col"
        assert main(["colour", "--m", "4", "--n", "6", "--t", "4", "--out", str(col)]) == 0
        assert main(["verify", str(t464), str(col)]) == 0

    def test_improper_colouring_exits_one(self, tmp_path, capsys):
        g = cycle_graph(5)
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(g))
        cp = tmp_path / "bad.col"
        cp.write_text("1 1\n2 2\n3 1\n4 2\n5 1\n")
        assert main(["verify", str(gp), str(cp)]) == 1
        out = capsys.readouterr().out
        assert "edge (1, 5)" in out

    def test_conflict_free_flag(self, tmp_path):
        g = cycle_graph(4)
        gp = tmp_path / "c4.og"
        gp.write_text(write_graph(g))
        cp = tmp_path / "c4.col"
        cp.write_text("1 1\n2 2\n3 3\n4 4\n")
        assert main(["verify", str(gp), str(cp), "--conflict-free"]) == 0

    def test_huge_colours_give_verdicts(self, tmp_path, capsys):
        # Colours beyond the nice bound are legal input for the general
        # verifiers and must cost no more than small ones.
        gp = tmp_path / "c4.og"
        gp.write_text(write_graph(cycle_graph(4)))
        cp = tmp_path / "huge.col"
        cp.write_text(f"1 1\n2 {10**12}\n3 {10**40}\n4 {10**12}\n")
        assert main(["verify", str(gp), str(cp)]) == 1
        out = capsys.readouterr().out
        assert "proper: yes" in out
        assert "odd: no (vertex 1)" in out
        assert "nice: no" in out

    def test_parse_error_exits_two(self, tmp_path):
        gp = tmp_path / "junk.og"
        gp.write_text("not a graph\n")
        cp = tmp_path / "c.col"
        cp.write_text("1 1\n")
        assert main(["verify", str(gp), str(cp)]) == 2

    @pytest.mark.parametrize(
        "k, colours",
        [
            (5, [1, 2, 3, 4, 5]),  # nice
            (5, [1, 2, 1, 2, 1]),  # improper
            (4, [1, 2, 1, 2]),  # proper, not odd
            (5, [1, 2, 3, 4, 10]),  # proper, odd, colour above 9
            (4, [10, 2, 10, 2]),  # colour above 9 and not odd
            (5, [10, 2, 1, 2, 10]),  # colour above 9 and improper
        ],
    )
    def test_verdicts_match_witness_functions(self, tmp_path, capsys, k, colours):
        g = cycle_graph(k)
        c = Colouring(dict(enumerate(colours, start=1)))
        gp = tmp_path / "g.og"
        gp.write_text(write_graph(g))
        cp = tmp_path / "c.col"
        cp.write_text(write_colouring(c))
        edge, v, nice = proper_witness(g, c), odd_witness(g, c), nice_witness(g, c)
        expected = [
            f"proper: {'yes' if edge is None else f'no (edge {edge})'}",
            f"odd: {'yes' if v is None else f'no (vertex {v})'}",
            f"nice: {'yes' if nice is None else f'no ({nice})'}",
        ]
        assert main(["verify", str(gp), str(cp)]) == (0 if nice is None else 1)
        assert capsys.readouterr().out.splitlines() == expected


class TestChiOdd:
    def test_c5(self, tmp_path, capsys):
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        assert main(["chi-odd", str(gp), "--max-k", "9"]) == 0
        assert "chi_odd = 5" in capsys.readouterr().out

    def test_k7(self, tmp_path, capsys):
        gp = tmp_path / "k7.og"
        main(["gen", "--m", "1", "--n", "7", "--t", "2", "--out", str(gp)])
        assert main(["chi-odd", str(gp), "--max-k", "9"]) == 0
        assert "chi_odd = 7" in capsys.readouterr().out

    def test_none_within_bound(self, tmp_path, capsys):
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        assert main(["chi-odd", str(gp), "--max-k", "4"]) == 0
        assert "none <= 4" in capsys.readouterr().out

    def test_budget_exceeded_exits_four(self, tmp_path, t464, capsys):
        assert main(["chi-odd", str(t464), "--max-k", "9", "--budget", "5"]) == 4
        assert "budget exceeded" in capsys.readouterr().out

    def test_recursion_depth_exits_four(self, tmp_path, capsys):
        # k = 3 colours the path's 2000 vertices in one descent
        gp = tmp_path / "p2000.og"
        gp.write_text(write_graph(path_graph(2000)))
        assert main(["chi-odd", str(gp), "--max-k", "9"]) == 4
        out, err = capsys.readouterr()
        assert out == "budget exceeded\n"
        assert "depth 2000" in err and "Traceback" not in err


class TestChiOddDefaults:
    """chi-odd searches with a default node budget per k, never unbounded,
    and --deterministic changes nothing."""

    @pytest.fixture
    def c5_file(self, tmp_path):
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        return str(gp)

    def test_parser_default_is_the_constant(self):
        args = build_parser().parse_args(["chi-odd", "g.og"])
        assert args.budget == cli.CHI_ODD_DEFAULT_BUDGET == 10_000_000

    def test_default_budget_applies(self, monkeypatch, c5_file, capsys):
        monkeypatch.setattr(cli, "CHI_ODD_DEFAULT_BUDGET", 3)
        assert main(["chi-odd", c5_file]) == 4
        assert capsys.readouterr().out == "budget exceeded\n"

    def test_explicit_budget_overrides_default(self, monkeypatch, c5_file, capsys):
        monkeypatch.setattr(cli, "CHI_ODD_DEFAULT_BUDGET", 3)
        assert main(["chi-odd", c5_file, "--budget", "1000"]) == 0
        assert capsys.readouterr().out == "chi_odd = 5\n"

    def test_deterministic_flag_changes_nothing(self, c5_file, capsys):
        seen = []
        for flag in ([], ["--deterministic"], ["--no-deterministic"]):
            code = main(["chi-odd", c5_file, *flag])
            seen.append((code, capsys.readouterr().out))
        assert seen == [(0, "chi_odd = 5\n")] * 3


class TestReusedParser:
    """main builds its parser on the first call and reuses it; a later call
    still reads CHI_ODD_DEFAULT_BUDGET and the cmd_* functions off the
    module.  Each test makes a warm call before it patches the module."""

    @pytest.fixture
    def c5_file(self, tmp_path):
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        return str(gp)

    def test_default_budget_read_per_call(self, monkeypatch, c5_file, capsys):
        assert main(["chi-odd", c5_file]) == 0
        monkeypatch.setattr(cli, "CHI_ODD_DEFAULT_BUDGET", 3)
        assert main(["chi-odd", c5_file]) == 4
        assert capsys.readouterr().out == "chi_odd = 5\nbudget exceeded\n"

    def test_patched_command_runs(self, monkeypatch, capsys):
        argv = ["colour", "--m", "1", "--n", "13", "--t", "4"]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_colour", lambda args: seen.append((args.m, args.n, args.t)) or 1)
        assert main(argv) == 1
        assert seen == [(1, 13, 4)]


class TestNoCycleAfterWarmCall:
    """After the first call, a request leaves nothing for the cyclic
    collector, whatever its exit code."""

    T775 = ["--m", "7", "--n", "7", "--t", "5"]
    # case: (exit code, argv with {d} the input directory)
    CASES = {
        "gen": (0, ["gen", *T775, "--out", "{d}/g.og"]),
        "gen-not-simple": (2, ["gen", "--m", "1", "--n", "4", "--t", "1"]),
        "colour-m1": (0, ["colour", "--m", "1", "--n", "13", "--t", "4"]),
        "colour-m2": (0, ["colour", "--m", "2", "--n", "7", "--t", "3"]),
        "colour-m-ge3": (0, ["colour", *T775, "--out", "{d}/c.col"]),
        "colour-unwritable-out": (3, ["colour", *T775, "--out", "{d}/missing/c.col"]),
        "verify": (0, ["verify", "{d}/c5.og", "{d}/good.col", "--conflict-free"]),
        "verify-bad-colouring": (1, ["verify", "{d}/c5.og", "{d}/bad.col"]),
        "chi-odd": (0, ["chi-odd", "{d}/c5.og"]),
        "chi-odd-max-k-zero": (2, ["chi-odd", "{d}/c5.og", "--max-k", "0"]),
        "chi-odd-budget-exhausted": (4, ["chi-odd", "{d}/c5.og", "--budget", "3"]),
        "discharge": (0, ["discharge", "{d}/c5.og"]),
        "discharge-disconnected": (2, ["discharge", "{d}/two.og"]),
        "info": (0, ["info", "{d}/c5.og"]),
        "info-missing-graph": (2, ["info", "{d}/missing.og"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_second_call_leaves_no_cycle(self, tmp_path, capsys, case):
        code, argv = self.CASES[case]
        (tmp_path / "c5.og").write_text(write_graph(cycle_graph(5)))
        (tmp_path / "good.col").write_text("1 1\n2 2\n3 3\n4 4\n5 5\n")
        (tmp_path / "bad.col").write_text("1 1\n2 2\n3 1\n4 2\n5 1\n")
        (tmp_path / "two.og").write_text("og 1\nv 4\nr 1 2\nr 2 1\nr 3 4\nr 4 3\n")
        argv = [arg.format(d=tmp_path) for arg in argv]
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == code
            gc.collect()
            assert main(argv) == code
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestDischarge:
    def test_torus_zero_totals(self, t464, capsys):
        assert main(["discharge", str(t464)]) == 0
        out = capsys.readouterr().out
        assert "total before: 0/1" in out
        assert "total after: 0/1" in out
        assert "conserved: yes" in out

    def test_k4_conserves_negative_total(self, tmp_path, k4_planar, capsys):
        gp = tmp_path / "k4.og"
        gp.write_text(write_graph(k4_planar))
        assert main(["discharge", str(gp)]) == 0
        out = capsys.readouterr().out
        assert "total before: -12/1" in out
        assert "total after: -12/1" in out

    def test_disconnected_exits_two(self, tmp_path):
        gp = tmp_path / "two.og"
        gp.write_text("og 1\nv 4\nr 1 2\nr 2 1\nr 3 4\nr 4 3\n")
        assert main(["discharge", str(gp)]) == 2

    def test_scrambled_torus_audit_pinned(self, tmp_path, capsys):
        # V - E + F = -16, so the total is 96; every rule fires, R2 both
        # at 1 and at the 3/4 of a (5, 5, 6+, 6+) face
        g = scrambled_torus(8, 8, 3, 16, seed=0)
        transfers = rule_transfers(g, tuple(embedding.trace_faces(g)))
        assert Counter(tr.rule for tr in transfers) == {"R1": 9, "R2": 13, "R3": 3, "R4": 8}
        assert sum(tr.amount == Fraction(3, 4) for tr in transfers if tr.rule == "R2") == 2
        gp = tmp_path / "scrambled.og"
        gp.write_text(write_graph(g))
        assert main(["discharge", str(gp)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "total before: 96/1",
            "total after: 96/1",
            "conserved: yes",
            "negative faces: [19, 51]",
            "negative 6+-vertices: []",
            "5-vertices with final charge <= 0: [7, 13, 58]",
        ]


class TestInfo:
    def test_torus_summary(self, t464, capsys):
        assert main(["info", str(t464)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 24" in out
        assert "edges: 72" in out
        assert "faces: 48" in out
        assert "euler characteristic: 0" in out
        assert "6-regular torus triangulation: yes" in out

    def test_k4_summary(self, tmp_path, k4_planar, capsys):
        gp = tmp_path / "k4.og"
        gp.write_text(write_graph(k4_planar))
        assert main(["info", str(gp)]) == 0
        out = capsys.readouterr().out
        assert "euler characteristic: 2" in out
        assert "6-regular torus triangulation: no" in out

    def test_t1_13_4_summary(self, tmp_path, capsys):
        gp = tmp_path / "t1134.og"
        main(["gen", "--m", "1", "--n", "13", "--t", "4", "--out", str(gp)])
        assert main(["info", str(gp)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 13" in out
        assert "edges: 39" in out
        assert "faces: 26" in out
        assert "euler characteristic: 0" in out

    def test_parse_error_exits_two(self, tmp_path):
        gp = tmp_path / "bad.og"
        gp.write_text("og 9\n")
        assert main(["info", str(gp)]) == 2

    @pytest.mark.parametrize("text", ["og 1\nv 2\nr 1 +2\nr 2 1\n", "og 1\nv \u0662\nr 1\n"])
    def test_non_ascii_digit_number_exits_two(self, tmp_path, capsys, text):
        gp = tmp_path / "bad.og"
        gp.write_text(text, encoding="utf-8")
        assert main(["info", str(gp)]) == 2
        assert "line " in capsys.readouterr().err

    def test_one_trace_per_run(self, tmp_path, t464, k4_planar, capsys, monkeypatch):
        traces = []
        original = embedding.trace_faces
        monkeypatch.setattr(
            embedding, "trace_faces", lambda g: traces.append(g) or original(g)
        )
        k4 = tmp_path / "k4.og"
        k4.write_text(write_graph(k4_planar))
        common = ["edge bound E <= 3V: yes", "connected: yes"]
        cases = [
            (t464, ["vertices: 24", "edges: 72", "degree histogram: 6:24", *common,
                    "faces: 48", "euler characteristic: 0",
                    "6-regular torus triangulation: yes"]),
            (k4, ["vertices: 4", "edges: 6", "degree histogram: 3:4", *common,
                  "faces: 4", "euler characteristic: 2",
                  "6-regular torus triangulation: no"]),
        ]
        for path, expected in cases:
            traces.clear()
            assert main(["info", str(path)]) == 0
            assert len(traces) == 1
            assert capsys.readouterr().out.splitlines() == expected


class TestUndecodableInput:
    # A file that is not UTF-8, or whose vertex count int() rejects (a
    # digit that is not a decimal, as str.isdigit accepts "²", or a count
    # past the string-conversion limit), is an input error on every
    # subcommand that reads one.
    GRAPHS = {
        "not-utf8": b"og 1\nv 1\nr 1 \xff\n",
        "superscript": "og 1\nv ²\n".encode(),
        "huge-count": b"og 1\nv " + b"1" * 5000 + b"\n",
    }

    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    @pytest.mark.parametrize("command", ["info", "verify", "chi-odd", "discharge"])
    def test_graph_file_exits_two(self, tmp_path, capsys, command, kind):
        gp = tmp_path / "g.og"
        gp.write_bytes(self.GRAPHS[kind])
        cp = tmp_path / "c.col"
        cp.write_text("1 1\n")
        argv = [command, str(gp), *([str(cp)] if command == "verify" else [])]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_colouring_file_exits_two(self, tmp_path, capsys):
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        cp = tmp_path / "c.col"
        cp.write_bytes(b"1 \xff\n")
        assert main(["verify", str(gp), str(cp)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {cp} is not UTF-8 text")



class TestExitCodes:
    """Each failure kind on each subcommand exits with its documented code,
    one line on stderr and no traceback."""

    T775 = ["--m", "7", "--n", "7", "--t", "5"]
    # case: (exit code, argv with {d} the input directory, reject every colouring)
    CASES = {
        "verify-missing-graph": (2, ["verify", "{d}/missing.og", "{d}/c5.col"], False),
        "chi-odd-missing-graph": (2, ["chi-odd", "{d}/missing.og"], False),
        "discharge-missing-graph": (2, ["discharge", "{d}/missing.og"], False),
        "info-missing-graph": (2, ["info", "{d}/missing.og"], False),
        "verify-missing-colouring": (2, ["verify", "{d}/c5.og", "{d}/missing.col"], False),
        "gen-m-zero": (2, ["gen", "--m", "0", "--n", "4", "--t", "1"], False),
        "gen-t-not-below-n": (2, ["gen", "--m", "3", "--n", "4", "--t", "4"], False),
        "colour-m-negative": (2, ["colour", "--m", "-1", "--n", "4", "--t", "1"], False),
        "gen-not-simple": (2, ["gen", "--m", "1", "--n", "4", "--t", "1"], False),
        "colour-not-simple": (2, ["colour", "--m", "1", "--n", "4", "--t", "1"], False),
        "colour-m1-shift-zero": (2, ["colour", "--m", "1", "--n", "5", "--t", "0"], False),
        "chi-odd-max-k-zero": (2, ["chi-odd", "{d}/c5.og", "--max-k", "0"], False),
        "chi-odd-negative-budget": (2, ["chi-odd", "{d}/c5.og", "--budget", "-1"], False),
        "discharge-disconnected": (2, ["discharge", "{d}/two.og"], False),
        "gen-unwritable-out": (3, ["gen", *T775, "--out", "{d}/missing/x.og"], False),
        "colour-unwritable-out": (3, ["colour", *T775, "--out", "{d}/missing/c.col"], False),
        "chi-odd-budget-exhausted": (4, ["chi-odd", "{d}/c5.og", "--budget", "3"], False),
        "colour-construction-failed": (1, ["colour", *T775, "--out", "{d}/c.col"], True),
    }
    STDERR_PREFIX = {1: "construction failed: ", 2: "error: ", 3: "io error: ", 4: "error: "}

    @pytest.mark.parametrize("case", list(CASES))
    def test_documented_code(self, tmp_path, capsys, monkeypatch, case):
        code, argv, reject = self.CASES[case]
        (tmp_path / "c5.og").write_text(write_graph(cycle_graph(5)))
        (tmp_path / "c5.col").write_text("1 1\n2 2\n3 3\n4 4\n5 5\n")
        (tmp_path / "two.og").write_text("og 1\nv 4\nr 1 2\nr 2 1\nr 3 4\nr 4 3\n")
        if reject:
            monkeypatch.setattr(construct, "nice_witness", lambda g, c: "rejected by the test")
        assert main([arg.format(d=tmp_path) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == ("budget exceeded\n" if code == 4 else "")
        assert err.startswith(self.STDERR_PREFIX[code]) and err.count("\n") == 1
        assert "Traceback" not in err

    def test_messages_spell_params_as_torus_params(self, tmp_path, capsys, monkeypatch):
        # T(m,n,t) reads the same in error messages as in gen's summary
        assert main(["colour", "--m", "1", "--n", "5", "--t", "0"]) == 2
        assert capsys.readouterr().err == "error: T(1,5,0) is not simple: self-loop at (1,1)\n"
        monkeypatch.setattr(construct, "nice_witness", lambda g, c: "rejected by the test")
        assert main(["colour", *self.T775, "--out", str(tmp_path / "c.col")]) == 1
        assert capsys.readouterr().err == "construction failed: T(7,7,5): rejected by the test\n"
        # API callers keep the exception's own message
        with pytest.raises(ConstructionFailedError) as info:
            construct.colour_torus(TorusParams(7, 7, 5))
        assert str(info.value) == "construction failed on T(7,7,5): rejected by the test"


class TestCollectorState:
    """main pauses the cyclic collector for the request it serves and
    leaves it as the caller had it, whatever the exit code."""

    # case: (exit code, argv with {d} the input directory)
    CASES = {
        "discharge": (0, ["discharge", "{d}/c5.og"]),
        "verify-bad-colouring": (1, ["verify", "{d}/c5.og", "{d}/bad.col"]),
        "missing-graph": (2, ["info", "{d}/missing.og"]),
        "chi-odd-budget-exhausted": (4, ["chi-odd", "{d}/c5.og", "--budget", "3"]),
    }

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def run(self, tmp_path, case) -> None:
        code, argv = self.CASES[case]
        (tmp_path / "c5.og").write_text(write_graph(cycle_graph(5)))
        (tmp_path / "bad.col").write_text("1 1\n2 2\n3 1\n4 2\n5 1\n")
        assert main([arg.format(d=tmp_path) for arg in argv]) == code

    @pytest.mark.parametrize("case", list(CASES))
    def test_enabled_stays_enabled(self, tmp_path, collector, case):
        gc.enable()
        self.run(tmp_path, case)
        assert gc.isenabled()

    @pytest.mark.parametrize("case", list(CASES))
    def test_disabled_stays_disabled(self, tmp_path, collector, case):
        gc.disable()
        self.run(tmp_path, case)
        assert not gc.isenabled()

    def test_paused_during_request(self, tmp_path, collector, monkeypatch):
        seen = []
        audit = discharge.audit
        monkeypatch.setattr(
            discharge, "audit", lambda *ledgers: seen.append(gc.isenabled()) or audit(*ledgers)
        )
        gc.enable()
        self.run(tmp_path, "discharge")
        assert seen == [False] and gc.isenabled()


class TestBenchmarkPatchTargets:
    """The traced benchmark run (bench/spans.py) wraps cli.cmd_* and its
    other targets by name, and counts solver nodes as entries into the
    search's nested function.  Loaded read-only, its Tracer must still find
    every target and count nodes on this package."""

    @pytest.fixture
    def spans(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        module = types.ModuleType("spans")
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        return module

    def test_tracer_round_trip(self, spans, tmp_path):
        original = solver.find_odd_colouring
        nested = [c.co_name for c in original.__code__.co_consts if isinstance(c, types.CodeType)]
        assert spans.SEARCH_FUNCTION in nested
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert solver.find_odd_colouring.__wrapped__ is original
            assert main(["chi-odd", str(gp)]) == 0
            assert main(["discharge", str(gp)]) == 0
        finally:
            tracer.uninstall()
        assert solver.find_odd_colouring is original
        metrics = tracer.metrics(startup_s=0.0, overhead_ratio=0.0, recoloured=0)
        assert metrics["solver.find_odd_colouring.k5.nodes"] > 0
        assert metrics["cli.chi_odd.self_s"] > 0 and metrics["cli.discharge.self_s"] > 0

    def test_tracer_installed_after_warm_call(self, spans, tmp_path, capsys):
        gp = tmp_path / "c5.og"
        gp.write_text(write_graph(cycle_graph(5)))
        colour = ["colour", "--m", "1", "--n", "13", "--t", "4"]
        assert main(["chi-odd", str(gp)]) == 0 and main(colour) == 0
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert main(["chi-odd", str(gp)]) == 0 and main(colour) == 0
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(startup_s=0.0, overhead_ratio=0.0, recoloured=0)
        assert metrics["solver.find_odd_colouring.k5.nodes"] > 0
        assert metrics["cli.chi_odd.self_s"] > 0 and metrics["cli.colour.self_s"] > 0
