"""Exact solver: forbidden colours, odd k-colouring search, chi_odd."""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddtorus import solver
from oddtorus.colouring import Colouring, is_odd, is_proper
from oddtorus.errors import NeighbourUncolouredError, ParameterError, ResourceLimitError
from oddtorus.solver import (
    PartialColouring,
    chi_odd,
    chi_odd_bruteforce,
    find_odd_colouring,
    forbidden_colours,
)
from oddtorus.torus import TorusParams, generate, is_simple

from conftest import (
    adjacencies,
    coloured_graphs,
    cycle_graph,
    from_adjacency,
    path_graph,
    random_graph,
)

POOL = Path(__file__).resolve().parents[1] / "bench" / "data" / "exact_pool.json"
POOL_NODES = Path(__file__).resolve().parent / "data" / "pool_nodes.json"


def naive_search_order(g):
    """Reference for solver._search_order: maximum cardinality search by
    rescanning every unordered vertex at each step, O(V^2).  Each step
    takes the vertex with the most ordered neighbours, ties broken by
    larger degree, then smaller id."""
    order, ordered = [], set()
    while len(order) < g.vertex_count:
        v = min(
            (v for v in g.vertices() if v not in ordered),
            key=lambda v: (-sum(w in ordered for w in g.rotation(v)), -g.degree(v), v),
        )
        order.append(v)
        ordered.add(v)
    return order


def reference_find_odd_colouring(g, k, *, node_budget=None):
    """Reference for find_odd_colouring: the same search, in the solver's
    static order, with the parity of each vertex's coloured neighbours
    kept incrementally, a bit mask XOR-ed and a count of uncoloured
    neighbours decremented at every neighbour on each colour tried, and
    both undone on backtrack."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.vertex_count
    order = solver._search_order(g)
    rotation = [()] + [g.rotation(v) for v in range(1, n + 1)]
    colour = [0] * (n + 1)
    uncoloured_nbrs = [0] + [g.degree(v) for v in range(1, n + 1)]
    # bit x of mask[v] is set iff x is in odd_colours(colour, coloured
    # neighbours of v)
    mask = [0] * (n + 1)
    nodes_left = [node_budget if node_budget is not None else -1]

    def solve(idx, max_used):
        if idx == n:
            return True
        u = order[idx]
        if nodes_left[0] == 0:
            raise ResourceLimitError("node budget exceeded")
        if not rotation[u]:
            colour[u] = 1
            if solve(idx + 1, max(max_used, 1)):
                return True
            colour[u] = 0
            return False
        taken = 0
        for w in rotation[u]:
            taken |= 1 << colour[w]
            if uncoloured_nbrs[w] == 1:
                parity = mask[w]
                if not parity & (parity - 1):
                    taken |= parity
        for x in range(1, min(k, max_used + 1) + 1):
            bit = 1 << x
            if taken & bit:
                continue
            if nodes_left[0] > 0:
                nodes_left[0] -= 1
            elif nodes_left[0] == 0:
                raise ResourceLimitError("node budget exceeded")
            colour[u] = x
            for w in rotation[u]:
                mask[w] ^= bit
                uncoloured_nbrs[w] -= 1
            if solve(idx + 1, max(max_used, x)):
                return True
            colour[u] = 0
            for w in rotation[u]:
                mask[w] ^= bit
                uncoloured_nbrs[w] += 1
        return False

    if not solve(0, 0):
        return None
    return Colouring({v: colour[v] for v in g.vertices()})


def search_outcome(search, g, k, budget):
    """The search's colouring or None, or "budget" when it raised
    ResourceLimitError."""
    try:
        return search(g, k, node_budget=budget)
    except ResourceLimitError:
        return "budget"


class SearchNodes:
    """Counts entries into the solver's recursive search function while
    installed, as the benchmark counts nodes."""

    def __init__(self):
        self.nodes = 0

    def _hook(self, frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "solve" and code.co_filename == solver.__file__:
            self.nodes += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


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


class TestSearchOrder:
    """The static order is maximum cardinality search: a permutation of
    the vertices with the isolated ones last, equal step by step to the
    naive rescan under the tie rule."""

    @given(adjacencies(9))
    def test_matches_naive_rescan(self, adj):
        g = from_adjacency(adj)
        order = solver._search_order(g)
        assert sorted(order) == list(g.vertices())
        isolated = [v for v in order if not g.degree(v)]
        assert order[len(order) - len(isolated):] == isolated
        assert order == naive_search_order(g)


class TestBitBansMatchSets:
    """The search evaluates the rule of _ban_sources on colour bits: the OR
    of its coloured neighbours' bits, plus each closing rotation's XOR
    when it has at most one bit.  At every step of its static table that
    equals forbidden_colours' set evaluation, with the steps before it
    coloured."""

    @settings(deadline=None)
    @given(adjacencies(9), st.integers(1, 6), st.data())
    def test_every_prefix_of_the_order(self, adj, k, data):
        g = from_adjacency(adj)
        steps = solver._search_steps(g)
        colours = data.draw(
            st.lists(st.integers(1, k), min_size=len(steps), max_size=len(steps))
        )
        assignment = {}
        for (u, before, closing), c in zip(steps, colours):
            bit = {v: 1 << x for v, x in assignment.items()}
            taken = 0
            for w in before:
                taken |= bit[w]
            for rotation in closing:
                parity = 0
                for x in rotation:
                    parity ^= bit.get(x, 0)
                if not parity & (parity - 1):
                    taken |= parity
            bans = {x for x in range(1, k + 1) if taken >> x & 1}
            pc = PartialColouring.on(g, assignment)
            assert bans == forbidden_colours(g, pc, u, relaxed=True), (u, assignment)
            assignment[u] = c


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


class TestMatchesReference:
    """find_odd_colouring against the incremental-mask reference: the
    same colouring or None, and ResourceLimitError at the same budget."""

    @settings(deadline=None)
    @given(adjacencies(9), st.integers(1, 6), st.none() | st.integers(0, 400))
    def test_random_graphs(self, adj, k, budget):
        g = from_adjacency(adj)
        assert search_outcome(find_odd_colouring, g, k, budget) == search_outcome(
            reference_find_odd_colouring, g, k, budget
        )

    @pytest.mark.parametrize("params", [(8, 8, 0), (7, 8, 3), (3, 9, 1), (1, 7, 2)])
    def test_torus_anchors(self, params):
        g = generate(TorusParams(*params))
        for k in range(1, 5):
            assert find_odd_colouring(g, k, node_budget=300_000) == (
                reference_find_odd_colouring(g, k, node_budget=300_000)
            )


@pytest.mark.slow
class TestPinnedPool:
    def test_every_pinned_run(self):
        """Every k-run of the benchmark's pinned pool at budget 100k: the
        pool's outcome, the node count pinned in tests/data/pool_nodes.json
        (the pool's own counts are those of the descending-degree order the
        pool was built with) and the reference's colouring."""
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        pinned = json.loads(POOL_NODES.read_text(encoding="utf-8"))["nodes"]
        assert len(pool["entries"]) == len(pinned) == 807
        for entry in pool["entries"]:
            g = generate(TorusParams(entry["m"], entry["n"], entry["t"]))
            nodes = pinned[f"{entry['m']},{entry['n']},{entry['t']}"]
            assert len(nodes) == len(entry["per_k"])
            for run, pinned_nodes in zip(entry["per_k"], nodes):
                with SearchNodes() as counter:
                    got = search_outcome(find_odd_colouring, g, run["k"], 100_000)
                where = (entry["m"], entry["n"], entry["t"], run["k"])
                outcome = "refuted" if got is None else "budget" if got == "budget" else "found"
                assert (outcome, counter.nodes) == (run["outcome"], pinned_nodes), where
                assert got == reference_find_odd_colouring(
                    g, run["k"], node_budget=100_000
                ), where


@pytest.mark.slow
class TestSmallTorusSweep:
    def test_every_simple_torus_up_to_area_48(self):
        """chi_odd at 100k nodes per k over every simple T(m,n,t) with
        mn <= 48, the pool's family: the number decided is pinned, each
        decided value equals the pool's where the pool has the instance,
        and the brute-force oracle's wherever V <= 9."""
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        pinned = {(e["m"], e["n"], e["t"]): e["chi_odd"] for e in pool["entries"]}
        simple = decided = 0
        for m in range(1, 49):
            for n in range(1, 48 // m + 1):
                for t in range(n):
                    p = TorusParams(m, n, t)
                    if not is_simple(p):
                        continue
                    simple += 1
                    g = generate(p)
                    try:
                        chi = chi_odd(g, 9, node_budget=100_000)
                    except ResourceLimitError:
                        continue
                    decided += 1
                    assert chi == pinned.get((m, n, t), chi), (m, n, t)
                    if g.vertex_count <= 9:
                        assert chi == chi_odd_bruteforce(g, 9), (m, n, t)
        assert (simple, decided) == (pool["simple_instances"], 1394)


class TestNoReferenceCycle:
    """The search leaves no reference cycle behind, so with the cyclic
    collector paused (as cli.main pauses it) its tables are freed when
    it returns or raises."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_chi_odd_leaves_nothing_to_collect(self, collector):
        g = generate(TorusParams(8, 8, 0))
        gc.disable()
        gc.collect()
        assert chi_odd(g, 9) == 4
        assert gc.collect() == 0

    def test_budget_exceeded_leaves_nothing_to_collect(self, collector):
        g = generate(TorusParams(8, 8, 0))
        gc.disable()
        gc.collect()
        with pytest.raises(ResourceLimitError):
            find_odd_colouring(g, 4, node_budget=1000)
        assert gc.collect() == 0


class TestRecursionLimit:
    """A search deeper than Python's recursion limit raises
    ResourceLimitError, never RecursionError."""

    def test_find_on_large_torus(self):
        g = generate(TorusParams(40, 40, 7))
        with pytest.raises(ResourceLimitError, match="depth 1600"):
            find_odd_colouring(g, 9)

    def test_bruteforce_on_long_path(self):
        with pytest.raises(ResourceLimitError, match="depth 2000"):
            chi_odd_bruteforce(path_graph(2000), 9)


class TestPruningPins:
    """The node budget counts colour attempts, so the smallest budget that
    decides an instance pins the vertex order, the colour order and both
    pruning mechanisms: any change to them moves it.

    Re-pinned when the static order changed from descending degree (ties
    by id) to maximum cardinality search, which closes neighbourhoods
    early so evening-out prunes sooner: the T(8,8,0) find went from
    168,865 to 52,001 and the T(3,9,1) refutation from 68,477 to 59."""

    @pytest.mark.parametrize(
        "params,k,budget,found",
        [((8, 8, 0), 4, 52_001, True), ((3, 9, 1), 4, 59, False)],
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


class TestArgumentChecks:
    """Arguments out of range raise ParameterError before any search: a
    negative budget is not read as "no budget"."""

    SEARCHES = {
        "find_odd_colouring": lambda g, budget: find_odd_colouring(g, 5, node_budget=budget),
        "chi_odd": lambda g, budget: chi_odd(g, 9, node_budget=budget),
        "chi_odd_bruteforce": lambda g, budget: chi_odd_bruteforce(g, 9, node_budget=budget),
    }

    @pytest.mark.parametrize("budget", [-1, -10**6])
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_negative_budget_rejected(self, c5, search, budget):
        with pytest.raises(ParameterError, match="node budget"):
            self.SEARCHES[search](c5, budget)

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_none_is_unbounded(self, c5, search):
        assert self.SEARCHES[search](c5, None) is not None

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: find_odd_colouring(g, 0),
            lambda g: chi_odd(g, 0),
            lambda g: chi_odd_bruteforce(g, 0),
        ],
    )
    def test_colour_bound_below_one_rejected(self, c5, call):
        with pytest.raises(ParameterError, match="at least 1"):
            call(c5)


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


class TestChiOddMatchesBruteforce:
    @settings(deadline=None)
    @given(adjacencies(8))
    def test_random_graphs(self, adj):
        g = from_adjacency(adj)
        assert chi_odd(g, g.vertex_count) == chi_odd_bruteforce(g, g.vertex_count)


class TestResultRecheck:
    """A found colouring is handed out only if the public verifiers accept
    it; the check is a raise, not an assert statement, so it also runs
    under python -O."""

    @pytest.mark.parametrize("verifier", ["is_proper", "is_odd"])
    def test_find_odd_colouring_raises_on_rejection(self, monkeypatch, c5, verifier):
        monkeypatch.setattr(solver, verifier, lambda g, c: False)
        with pytest.raises(AssertionError, match="bad colouring"):
            find_odd_colouring(c5, 5)

    @pytest.mark.parametrize("verifier", ["is_proper", "is_odd"])
    def test_bruteforce_raises_on_rejection(self, monkeypatch, c5, verifier):
        monkeypatch.setattr(solver, verifier, lambda g, c: False)
        with pytest.raises(AssertionError, match="bad colouring"):
            chi_odd_bruteforce(c5, 5)

    def test_recheck_survives_optimised_mode(self):
        script = textwrap.dedent(
            """
            from oddtorus import solver
            from oddtorus.torus import TorusParams, generate
            assert False  # stripped under -O, so this line must not raise
            solver.is_odd = lambda g, c: False
            g = generate(TorusParams(1, 7, 2))
            for search in (solver.find_odd_colouring, solver.chi_odd_bruteforce):
                try:
                    search(g, 7)
                except AssertionError as exc:
                    print("raised:", exc)
            """
        )
        src = str(Path(solver.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["raised: solver returned a bad colouring"] * 2
