"""CLI subcommands and the exit-code contract."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from oddtorus import embedding
from oddtorus.cli import main
from oddtorus.colouring import Colouring, nice_witness, odd_witness, proper_witness
from oddtorus.discharge import rule_transfers
from oddtorus.graphio import parse_colouring, parse_graph, write_colouring, write_graph

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

