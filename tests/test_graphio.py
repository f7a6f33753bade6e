"""Graph and colouring file formats: round trips and parse errors."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oddtorus.colouring import Colouring
from oddtorus.errors import GraphFileError
from oddtorus.graphio import parse_colouring, parse_graph, write_colouring, write_graph
from oddtorus.torus import TorusParams, generate, is_simple

from conftest import adjacencies, from_adjacency, random_connected_embedding


@st.composite
def simple_tori(draw):
    """Hypothesis strategy: a simple T(m,n,t) with m <= 6, n <= 12."""
    n = draw(st.integers(4, 12))
    p = TorusParams(draw(st.integers(1, 6)), n, draw(st.integers(0, n - 1)))
    assume(is_simple(p))
    return generate(p)


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

    @given(adjacencies(9))
    def test_adjacency_round_trips(self, adj):
        g = from_adjacency(adj)
        assert parse_graph(write_graph(g)) == g

    @given(simple_tori())
    def test_torus_round_trips(self, g):
        h = parse_graph(write_graph(g))
        assert h == g
        assert [h.neighbours(v) for v in h.vertices()] == [g.neighbours(v) for v in g.vertices()]

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

    @pytest.mark.parametrize(
        "count",
        [
            "²",  # passes str.isdigit, but int() rejects it
            "1" * 5000,  # decimal, but past int()'s string-conversion limit
        ],
        ids=["superscript", "huge"],
    )
    def test_non_decimal_digit_count(self, count):
        with pytest.raises(GraphFileError) as exc:
            parse_graph(f"og 1\nv {count}\nr 1\n")
        assert exc.value.line == 2


    @pytest.mark.parametrize(
        "text, line",
        [
            ("og 1\nv 2\nr 1 +2\nr 2 1\n", 3),
            ("og 1\nv 2\nr 1 2\nr \u0662 0_1\n", 4),
            ("og 1\nv 2\nr 1 0_2\nr 2 1\n", 3),
            ("og 1\nv \u0662\nr 1\n", 2),
            ("og 1\nv +1\nr 1\n", 2),
        ],
        ids=["plus-sign", "arabic-indic-id", "underscore", "arabic-indic-count", "signed-count"],
    )
    def test_only_ascii_digits(self, text, line):
        # int() accepts all of these; the format does not
        with pytest.raises(GraphFileError) as exc:
            parse_graph(text)
        assert exc.value.line == line


class TestColouringFiles:
    def test_round_trip(self):
        c = Colouring({1: 3, 2: 1, 3: 9})
        assert parse_colouring(write_colouring(c)).assignment == c.assignment

    @given(
        st.dictionaries(
            st.integers(1, 10**6),
            st.one_of(st.integers(1, 12), st.integers(10**9, 10**40)),
            min_size=1,
        )
    )
    def test_drawn_assignments_round_trip(self, assignment):
        c = Colouring(assignment)
        assert parse_colouring(write_colouring(c)).assignment == assignment

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

    @pytest.mark.parametrize(
        "entry",
        ["2 +0_9", "2 \u0669", "+2 9", "2 0_1"],
        ids=["signed-underscored", "arabic-indic", "signed-vertex", "underscore"],
    )
    def test_only_ascii_digits(self, entry):
        with pytest.raises(GraphFileError) as exc:
            parse_colouring(f"1 1\n{entry}\n")
        assert exc.value.line == 2
