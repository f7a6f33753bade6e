"""CLI subcommands and the exit-code contract."""

from __future__ import annotations

import pytest

from oddtorus.cli import main
from oddtorus.graphio import parse_colouring, parse_graph, write_colouring, write_graph

from conftest import cycle_graph


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
