"""Proper / odd / conflict-free / nice verdicts and their witnesses."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddtorus.colouring import (
    Colouring,
    conflict_free_witness,
    is_conflict_free,
    is_nice,
    is_odd,
    is_proper,
    nice_witness,
    odd_witness,
    odd_colours,
    proper_witness,
)
from oddtorus.construct import colour_torus
from oddtorus.errors import PartialColouringError
from oddtorus.torus import TorusParams, generate

from conftest import coloured_graphs, cycle_graph, from_adjacency, path_graph, random_graph


def colour_list(values):
    return Colouring({v: c for v, c in enumerate(values, start=1)})


class TestProper:
    def test_c5_distinct(self, c5):
        assert is_proper(c5, colour_list([1, 2, 3, 4, 5]))

    def test_c5_wraparound_clash(self, c5):
        c = colour_list([1, 2, 1, 2, 1])
        assert proper_witness(c5, c) == (1, 5)
        assert not is_proper(c5, c)

    def test_constructed_torus_colouring(self):
        p = TorusParams(7, 7, 5)
        assert is_proper(generate(p), colour_torus(p))

    def test_partial_colouring_rejected(self, c5):
        with pytest.raises(PartialColouringError):
            is_proper(c5, Colouring({1: 1}))

    @given(coloured_graphs())
    def test_first_edge_matches_edges_order(self, drawn):
        g, colours = drawn
        c = Colouring(colours)
        assert proper_witness(g, c) == proper_witness_by_edges(g, c)

    def test_first_edge_follows_rotation_order(self):
        # torus rotations are not sorted, so the first clash at a vertex is
        # the first in its rotation, not the smallest neighbour
        p = TorusParams(7, 7, 5)
        g, nice = generate(p), colour_torus(p)
        for v in (1, 9, 25, 49):
            for w in g.rotation(v):
                c = nice.with_recoloured({v: nice[w]})
                assert proper_witness(g, c) == proper_witness_by_edges(g, c) is not None


def proper_witness_by_edges(g, c):
    """Reference: the first edge of g.edges() whose ends share a colour."""
    for u, v in g.edges():
        if c[u] == c[v]:
            return (u, v)
    return None


class TestOdd:
    def test_k7_distinct_colours(self):
        k7 = generate(TorusParams(1, 7, 2))
        assert is_odd(k7, colour_list([1, 2, 3, 4, 5, 6, 7]))

    def test_path_middle_sees_colour_twice(self):
        g = path_graph(3)
        c = colour_list([1, 2, 1])
        assert odd_witness(g, c) == 2
        assert not is_odd(g, c)

    def test_c6_two_colouring_not_odd(self):
        # every vertex sees a single colour twice
        assert not is_odd(cycle_graph(6), colour_list([1, 2, 1, 2, 1, 2]))

    def test_isolated_vertices_exempt(self):
        g = from_adjacency({1: [2], 2: [1], 3: []})
        assert is_odd(g, colour_list([1, 2, 1]))


class TestConflictFree:
    def test_k7(self):
        k7 = generate(TorusParams(1, 7, 2))
        assert is_conflict_free(k7, colour_list([1, 2, 3, 4, 5, 6, 7]))

    def test_c4_alternating(self):
        assert not is_conflict_free(cycle_graph(4), colour_list([1, 2, 1, 2]))

    def test_star_odd_but_not_conflict_free(self):
        # centre sees colour 2 three times: odd multiplicity, never once
        g = from_adjacency({1: [2, 3, 4], 2: [1], 3: [1], 4: [1]})
        c = colour_list([1, 2, 2, 2])
        assert is_odd(g, c)
        assert conflict_free_witness(g, c) == 1


class TestNice:
    def test_constructed_colouring(self):
        p = TorusParams(5, 5, 3)
        assert is_nice(generate(p), colour_torus(p))

    def test_k7_with_seven_colours(self):
        k7 = generate(TorusParams(1, 7, 2))
        assert is_nice(k7, colour_list([1, 2, 3, 4, 5, 6, 7]))

    def test_colour_ten_rejected(self, c5):
        c = colour_list([1, 2, 3, 4, 10])
        assert not is_nice(c5, c)
        assert is_proper(c5, c) and is_odd(c5, c)


class TestProperties:
    def test_conflict_free_implies_odd(self):
        rng = random.Random(11)
        hits = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.9))
            c = Colouring({v: rng.randint(1, 5) for v in g.vertices()})
            if is_conflict_free(g, c):
                hits += 1
                assert is_odd(g, c)
        assert hits > 0

    def test_all_distinct_neighbourhoods_are_conflict_free_and_odd(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            c = Colouring({v: v for v in g.vertices()})
            assert is_conflict_free(g, c)
            assert is_odd(g, c)

    def test_odd_degree_vertices_never_fail_odd(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.9))
            c = Colouring({v: rng.randint(1, 4) for v in g.vertices()})
            w = odd_witness(g, c)
            if w is not None:
                assert g.degree(w) % 2 == 0

    def test_verdicts_invariant_under_colour_permutation(self):
        rng = random.Random(14)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 9), 0.5)
            c = Colouring({v: rng.randint(1, 5) for v in g.vertices()})
            perm = list(range(1, 6))
            rng.shuffle(perm)
            pc = Colouring({v: perm[c[v] - 1] for v in g.vertices()})
            assert is_proper(g, c) == is_proper(g, pc)
            assert is_odd(g, c) == is_odd(g, pc)
            assert is_conflict_free(g, c) == is_conflict_free(g, pc)

    @given(coloured_graphs(), st.data())
    def test_witnesses_invariant_under_colour_renaming(self, drawn, data):
        # the verifiers compare colours only for equality, so a bijective
        # renaming of the colours, huge ones included, keeps every witness
        g, colours = drawn
        used = sorted(set(colours.values()))
        images = data.draw(
            st.lists(
                st.one_of(st.integers(1, 12), st.integers(10**9, 10**40)),
                min_size=len(used), max_size=len(used), unique=True,
            )
        )
        rename = dict(zip(used, images))
        c = Colouring(colours)
        pc = Colouring({v: rename[x] for v, x in colours.items()})
        for witness in (proper_witness, odd_witness, conflict_free_witness):
            assert witness(g, c) == witness(g, pc)

    @given(coloured_graphs(), st.permutations(range(1, 10)))
    def test_nice_verdict_invariant_under_permuting_one_to_nine(self, drawn, perm):
        g, colours = drawn
        sigma = dict(zip(range(1, 10), perm))
        c = Colouring(colours)
        pc = Colouring({v: sigma.get(x, x) for v, x in colours.items()})
        assert (nice_witness(g, c) is None) == (nice_witness(g, pc) is None)


def odd_witness_by_multiset(g, c):
    """Reference: the direct multiset definition of oddness."""
    for v in g.vertices():
        counts = Counter(c[w] for w in g.rotation(v))
        if counts and all(k % 2 == 0 for k in counts.values()):
            return v
    return None


class TestOddColours:
    def test_odd_multiplicities(self):
        colour = {1: 3, 2: 3, 3: 5, 4: 1}
        assert odd_colours(colour, [1, 2, 3, 4]) == {1, 5}
        assert odd_colours(colour, [1, 2]) == set()
        assert odd_colours(colour, []) == set()

    def test_huge_colours(self):
        g = cycle_graph(4)
        c = Colouring({1: 1, 2: 10**12, 3: 10**40, 4: 10**12})
        assert odd_colours(c.assignment, [1, 2, 3, 4]) == {1, 10**40}
        assert odd_witness(g, c) == 1

    @given(coloured_graphs())
    def test_odd_witness_agrees_with_multiset_definition(self, drawn):
        g, colours = drawn
        c = Colouring(colours)
        assert odd_witness(g, c) == odd_witness_by_multiset(g, c)
