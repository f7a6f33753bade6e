"""Graph and colouring file formats: round trips and parse errors."""

from __future__ import annotations

import random

import pytest

from oddtorus.colouring import Colouring
from oddtorus.errors import GraphFileError
from oddtorus.graphio import parse_colouring, parse_graph, write_colouring, write_graph
from oddtorus.torus import TorusParams, generate

from conftest import random_connected_embedding


class TestGraphRoundTrip:
    def test_torus_instance(self):
        g = generate(TorusParams(4, 6, 4))
        text = write_graph(g)
        assert text.splitlines()[0] == "og 1"
        assert text.splitlines()[1] == "v 24"
        assert parse_graph(text) == g

    def test_write_is_normal_form(self):
        g = generate(TorusParams(2, 5, 2))
        assert write_graph(parse_graph(write_graph(g))) == write_graph(g)

    def test_unsorted_input_normalizes(self):
        messy = "og 1\nv 2\nr 2 1\nr 1 2\n"
        assert write_graph(parse_graph(messy)) == "og 1\nv 2\nr 1 2\nr 2 1\n"

    def test_isolated_vertex(self):
        text = "og 1\nv 2\nr 1\nr 2\n"
        g = parse_graph(text)
        assert g.degree(1) == 0
        assert write_graph(g) == text

    def test_random_round_trips(self):
        rng = random.Random(55)
        for _ in range(25):
            g = random_connected_embedding(rng, rng.randint(2, 12))
            assert parse_graph(write_graph(g)) == g


class TestGraphParseErrors:
    def test_bad_header(self):
        with pytest.raises(GraphFileError) as exc:
            parse_graph("og 2\nv 1\nr 1\n")
        assert exc.value.line == 1

    def test_asymmetry_with_line_number(self):
        with pytest.raises(GraphFileError) as exc:
            parse_graph("og 1\nv 2\nr 1 2\nr 2\n")
        assert exc.value.line == 3

    def test_self_loop(self):
        with pytest.raises(GraphFileError):
            parse_graph("og 1\nv 1\nr 1 1\n")

    def test_repeated_neighbour(self):
        with pytest.raises(GraphFileError):
            parse_graph("og 1\nv 2\nr 1 2 2\nr 2 1 1\n")

    def test_out_of_range(self):
        with pytest.raises(GraphFileError) as exc:
            parse_graph("og 1\nv 2\nr 1 3\nr 2\n")
        assert exc.value.line == 3

    def test_missing_vertex(self):
        with pytest.raises(GraphFileError):
            parse_graph("og 1\nv 3\nr 1 2\nr 2 1\n")

    def test_huge_declared_count_fails_at_first_gap(self):
        with pytest.raises(GraphFileError, match="vertex 2"):
            parse_graph("og 1\nv 1000000000000\nr 1\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFileError) as exc:
            parse_graph("og 1\nv 2\nr 1 2\nr 1 2\n")
        assert exc.value.line == 4


class TestColouringFiles:
    def test_round_trip(self):
        c = Colouring({1: 3, 2: 1, 3: 9})
        assert parse_colouring(write_colouring(c)).assignment == c.assignment

    def test_totality_against_graph(self, c5):
        with pytest.raises(GraphFileError):
            parse_colouring("1 1\n2 2\n", graph=c5)

    def test_unknown_vertex_rejected(self, c5):
        text = "\n".join(f"{v} 1" for v in range(1, 7)) + "\n"
        with pytest.raises(GraphFileError):
            parse_colouring(text, graph=c5)

    def test_nonpositive_colour_rejected(self):
        with pytest.raises(GraphFileError):
            parse_colouring("1 0\n")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphFileError):
            parse_colouring("1 1\n1 2\n")
