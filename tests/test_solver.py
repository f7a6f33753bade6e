"""Exact solver: forbidden colours, odd k-colouring search, chi_odd."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddtorus.colouring import is_odd, is_proper
from oddtorus.errors import NeighbourUncolouredError, ResourceLimitError
from oddtorus.solver import (
    PartialColouring,
    chi_odd,
    chi_odd_bruteforce,
    find_odd_colouring,
    forbidden_colours,
)
from oddtorus.torus import TorusParams, generate

from conftest import coloured_graphs, cycle_graph, from_adjacency, path_graph, random_graph


class TestForbiddenColours:
    def test_oddness_ban_from_evening_out(self):
        # w coloured 1 with other neighbours 2,3,3: using 2 at v would
        # make the counts in N(w) equal {2:2, 3:2}, all even
        g = from_adjacency({1: [2], 2: [1, 3, 4, 5], 3: [2], 4: [2], 5: [2]})
        pc = PartialColouring.on(g, {2: 1, 3: 2, 4: 3, 5: 3})
        assert forbidden_colours(g, pc, 1) == {1, 2}

    def test_no_ban_when_counts_already_even(self):
        g = from_adjacency({1: [2], 2: [1, 3, 4], 3: [2], 4: [2]})
        pc = PartialColouring.on(g, {2: 1, 3: 2, 4: 2})
        assert forbidden_colours(g, pc, 1) == {1}

    def test_odd_degree_neighbour_never_contributes(self):
        # K_{1,3} centre has odd degree: no assignment at a leaf's
        # position can even out the centre's neighbourhood
        g = from_adjacency({1: [2, 3, 4], 2: [1], 3: [1], 4: [1]})
        pc = PartialColouring.on(g, {1: 1, 3: 2, 4: 3})
        assert forbidden_colours(g, pc, 2) == {1}

    def test_strict_mode_requires_coloured_neighbours(self):
        g = cycle_graph(4)
        pc = PartialColouring.on(g, {2: 1})
        with pytest.raises(NeighbourUncolouredError):
            forbidden_colours(g, pc, 1)
        assert forbidden_colours(g, pc, 1, relaxed=True) == {1}

    def test_bound_on_random_triples(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
            v = rng.randint(1, g.vertex_count)
            assignment = {
                w: rng.randint(1, 9) for w in g.vertices() if w != v
            }
            pc = PartialColouring.on(g, assignment)
            assert len(forbidden_colours(g, pc, v)) <= 2 * g.degree(v)


def oddness_ban_by_counting(g, assignment, w, v):
    """Reference: the colour x such that colouring v with x makes every
    multiplicity in N(w) even, by explicit counts, or None.  None also
    when w has uncoloured neighbours other than v.  Uniqueness is
    checked rather than assumed."""
    counts = {}
    for x in g.rotation(w):
        if x == v:
            continue
        if x not in assignment:
            return None
        c = assignment[x]
        counts[c] = counts.get(c, 0) + 1
    candidates = [
        c for c in sorted(counts)
        if counts[c] % 2 == 1
        and all(k % 2 == 0 for cc, k in counts.items() if cc != c)
    ]
    assert len(candidates) <= 1, f"multiple evening-out colours at {w}: {candidates}"
    return candidates[0] if candidates else None


def forbidden_by_counting(g, assignment, v, relaxed):
    """Reference for forbidden_colours built on oddness_ban_by_counting."""
    forbidden = set()
    for w in g.rotation(v):
        if w in assignment:
            forbidden.add(assignment[w])
        elif not relaxed:
            raise NeighbourUncolouredError(f"neighbour {w} of {v} is uncoloured")
    for w in g.rotation(v):
        ban = oddness_ban_by_counting(g, assignment, w, v)
        if ban is not None:
            forbidden.add(ban)
    return forbidden


class TestForbiddenColoursProperty:
    @given(coloured_graphs(), st.data(), st.booleans())
    def test_agrees_with_counting_reference(self, drawn, data, relaxed):
        g, colours = drawn
        v = data.draw(st.sampled_from(list(g.vertices())))
        uncoloured = data.draw(st.sets(st.sampled_from(list(g.vertices())))) | {v}
        assignment = {w: c for w, c in colours.items() if w not in uncoloured}
        pc = PartialColouring.on(g, assignment)
        try:
            expected = forbidden_by_counting(g, assignment, v, relaxed)
        except NeighbourUncolouredError:
            with pytest.raises(NeighbourUncolouredError):
                forbidden_colours(g, pc, v, relaxed=relaxed)
        else:
            assert forbidden_colours(g, pc, v, relaxed=relaxed) == expected


class TestFindOddColouring:
    def test_c5_needs_five(self, c5):
        assert find_odd_colouring(c5, 4) is None
        c = find_odd_colouring(c5, 5)
        assert c is not None
        assert is_proper(c5, c) and is_odd(c5, c)

    def test_k7(self):
        k7 = generate(TorusParams(1, 7, 2))
        c = find_odd_colouring(k7, 7)
        assert c is not None and c.colour_count == 7

    def test_deterministic(self, c5):
        assert find_odd_colouring(c5, 5) == find_odd_colouring(c5, 5)

    def test_budget_raises(self):
        g = generate(TorusParams(2, 6, 1))
        with pytest.raises(ResourceLimitError):
            find_odd_colouring(g, 4, node_budget=3)

    def test_monotonicity(self):
        rng = random.Random(42)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
            for k in range(1, g.vertex_count):
                if find_odd_colouring(g, k) is not None:
                    assert find_odd_colouring(g, k + 1) is not None
                    break


class TestPruningPins:
    """The node budget counts colour attempts, so the smallest budget that
    decides an instance pins the vertex order, the colour order and both
    pruning mechanisms: any change to them moves it."""

    @pytest.mark.parametrize(
        "params,k,budget,found",
        [((8, 8, 0), 4, 168_865, True), ((3, 9, 1), 4, 68_477, False)],
    )
    def test_smallest_deciding_budget(self, params, k, budget, found):
        g = generate(TorusParams(*params))
        assert (find_odd_colouring(g, k, node_budget=budget) is not None) == found
        with pytest.raises(ResourceLimitError):
            find_odd_colouring(g, k, node_budget=budget - 1)


class TestChiOdd:
    def test_anchors(self, c5):
        assert chi_odd(c5, 9) == 5
        assert chi_odd(cycle_graph(6), 9) == 3
        assert chi_odd(generate(TorusParams(1, 7, 2)), 9) == 7

    def test_none_when_bound_too_small(self, c5):
        assert chi_odd(c5, 4) is None

    def test_isolated_vertex_graph(self):
        g = from_adjacency({1: []})
        assert chi_odd(g, 9) == 1


class TestBruteforceOracle:
    def test_anchors(self, c5):
        assert chi_odd_bruteforce(path_graph(2), 9) == 2
        assert chi_odd_bruteforce(cycle_graph(4), 9) == 4
        assert chi_odd_bruteforce(c5, 9) == 5

    def test_budget(self):
        g = generate(TorusParams(2, 6, 1))
        with pytest.raises(ResourceLimitError):
            chi_odd_bruteforce(g, 9, node_budget=10)

    def test_agreement_on_small_random_graphs(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            assert chi_odd(g, g.vertex_count) == chi_odd_bruteforce(g, g.vertex_count)
