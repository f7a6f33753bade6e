"""Exact decision of odd k-colourability and the odd chromatic number.

The solver backtracks over vertices in a static order, trying colours in
ascending order with first-occurrence symmetry breaking: a vertex may use
at most one colour beyond the largest colour used so far, which is sound
because all verdicts are invariant under colour permutation.  The order
is maximum cardinality search (Tarjan and Yannakakis, SIAM J. Comput.
1984, see _search_order): it starts at the largest degree, smallest id,
and always takes next the vertex with the most neighbours already
ordered.  Evening-out can ban a colour at v only when v is the last
uncoloured neighbour of some w, so an order that closes neighbourhoods
early prunes early.  T(m,n,t) is 6-regular, so descending degree with
ties by id, the order this replaced, is plain id order, column by column;
on the benchmark's pinned pool MCS cuts the nodes from 9.24M to 2.08M at
no extra cost per node.

The forbidden-colour rule, stated once in _ban_sources: properness bans
the colours of v's coloured neighbours, and oddness bans at most one
more colour per neighbour w whose every neighbour other than v is
coloured (a closing neighbour).  The parity of N(w) without v, the set
of colours of odd multiplicity there (colouring.odd_colours), bans its
element when it has exactly one, because colouring v with it would
leave every multiplicity in N(w) even.  So at most 2 deg(v) colours are
ever excluded at v.  _ban_sources names the two sources, the coloured
neighbours and the closing neighbours' rotations, for any collection of
coloured vertices; forbidden_colours evaluates them as sets.

The search evaluates the same rule on bits.  Because its order is
static, step i colours order[i] with exactly the vertices earlier in
the order coloured, so _search_steps reads every step's two sources off
_ban_sources once, before the search starts.  The search codes each
colour x <= k as the bit 1 << x (0 while uncoloured), so a step ORs its
coloured neighbours' bits and, for each closing rotation, XORs the bits
over it (the uncoloured vertex adds 0) to get the parity set as a bit
mask, and ORs that mask into the bans when it has at most one bit (an
empty parity adds nothing).  Nothing is updated or undone when a colour
is tried beyond storing its bit.

chi_odd_bruteforce is an independent oracle: it enumerates proper
assignments exhaustively in vertex-id order, with no symmetry breaking
and no oddness pruning, and filters complete assignments with the
direct multiset definition of oddness.  It shares none of the solver's
machinery, so agreement between the two is meaningful evidence.

Both searches recurse once per vertex; a graph too large for Python's
recursion limit raises ResourceLimitError rather than RecursionError.
"""

from __future__ import annotations

import heapq
import sys
from collections.abc import Container, Mapping
from dataclasses import dataclass

from .colouring import Colouring, is_odd, is_proper, odd_colours
from .embedding import EmbeddedGraph
from .errors import NeighbourUncolouredError, ParameterError, ResourceLimitError

#: Default node budget for the brute-force oracle; enumeration beyond
#: this is considered infeasible rather than silently attempted.
BRUTEFORCE_DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class PartialColouring:
    """Partial map vertex -> colour plus the set of uncoloured vertices."""

    assignment: Mapping[int, int]
    uncoloured: frozenset[int]

    @classmethod
    def on(cls, g: EmbeddedGraph, assignment: Mapping[int, int]) -> "PartialColouring":
        for v, c in assignment.items():
            if v not in g.vertices():
                raise ValueError(f"vertex {v} not in graph")
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"colour of vertex {v} must be a positive int")
        return cls(dict(assignment), frozenset(set(g.vertices()) - set(assignment)))


def _ban_sources(
    g: EmbeddedGraph, v: int, coloured: Container[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The two sources of v's forbidden colours, given the vertices that
    carry a colour: v's coloured neighbours, which ban their colours, and
    the rotations of v's closing neighbours, those whose every neighbour
    other than v is coloured, which ban the one colour of odd
    multiplicity among those neighbours if there is exactly one."""
    rotation = g.rotation
    return (
        tuple(w for w in rotation(v) if w in coloured),
        tuple(
            rotation(w)
            for w in rotation(v)
            if all(x == v or x in coloured for x in rotation(w))
        ),
    )


def forbidden_colours(
    g: EmbeddedGraph, pc: PartialColouring, v: int, *, relaxed: bool = False
) -> set[int]:
    """Colours unusable at the uncoloured vertex v.

    The union of the colours of v's neighbours (forbidden by properness)
    and the evening-out bans (forbidden by oddness): a neighbour w bans a
    colour iff v is its only uncoloured neighbour and its other
    neighbours have a single colour of odd multiplicity, and the banned
    colour is that one.  Each neighbour bans at most one colour, so the
    result has at most 2 deg(v) elements.  Both sources come from
    _ban_sources, evaluated here as sets.

    Raises:
        NeighbourUncolouredError: some neighbour of v is uncoloured and
            relaxed is False.  With relaxed=True such neighbours are
            skipped instead.
    """
    colour = pc.assignment
    if v in colour:
        raise ValueError(f"vertex {v} is already coloured")
    if not relaxed:
        for w in g.rotation(v):
            if w not in colour:
                raise NeighbourUncolouredError(f"neighbour {w} of {v} is uncoloured")
    nbrs, closing = _ban_sources(g, v, colour)
    forbidden = {colour[w] for w in nbrs}
    for rotation in closing:
        odd = odd_colours(colour, (x for x in rotation if x != v))
        if len(odd) == 1:
            forbidden |= odd
    return forbidden


def _too_deep(n: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"search depth {n} exceeds the recursion limit ({sys.getrecursionlimit()})"
    )


def _nodes_left(node_budget: int | None) -> int:
    """The search's node counter: the budget, or -1 for no budget."""
    if node_budget is None:
        return -1
    if node_budget < 0:
        raise ParameterError(f"node budget must be at least 0, got {node_budget}")
    return node_budget


def _search_order(g: EmbeddedGraph) -> list[int]:
    """The search's static vertex order, by maximum cardinality search:
    each vertex is the unordered one with the most ordered neighbours,
    ties broken by larger degree, then smaller id.  So the order starts
    at the largest degree, smallest id, and the isolated vertices come
    last, in id order (their key is the largest possible)."""
    rotation, degree = g.rotation, g.degree
    ordered_nbrs = [0] * (g.vertex_count + 1)
    placed = [False] * (g.vertex_count + 1)
    heap = [(0, -degree(v), v) for v in g.vertices()]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)[2]
        # counts only grow, so v's newest entry pops before its stale ones
        if placed[v]:
            continue
        placed[v] = True
        order.append(v)
        for w in rotation(v):
            if not placed[w]:
                ordered_nbrs[w] += 1
                heapq.heappush(heap, (-ordered_nbrs[w], -degree(w), w))
    return order


def _search_steps(
    g: EmbeddedGraph,
) -> list[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The search's table: step i colours _search_order(g)[i] with the
    vertices before it coloured, and holds that vertex and its two ban
    sources."""
    steps = []
    coloured: set[int] = set()
    for u in _search_order(g):
        steps.append((u, *_ban_sources(g, u, coloured)))
        coloured.add(u)
    return steps


def find_odd_colouring(
    g: EmbeddedGraph, k: int, *, node_budget: int | None = None
) -> Colouring | None:
    """A proper odd colouring of g with at most k colours, or None.

    Deterministic for fixed inputs.  Returned colourings are re-checked
    against the verifier before being handed out.

    Raises:
        ParameterError: k < 1 or a negative node_budget.
        ResourceLimitError: node budget exhausted before a decision, or
            the search deeper than Python's recursion limit allows.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    budget = _nodes_left(node_budget)
    n = g.vertex_count
    steps = _search_steps(g)
    # the order puts the isolated vertices last
    active = sum(1 for u, _, _ in steps if g.degree(u))
    # bit[v] = 1 << colour of v, and 0 while v is uncoloured
    bit = [0] * (n + 1)
    full = (2 << k) - 2

    def solve(idx: int, allowed: int) -> bool:
        # allowed: the bits of colours 1..min(k, largest used so far + 1)
        nonlocal budget
        if idx == n:
            return True
        if budget == 0:
            raise ResourceLimitError("node budget exceeded")
        u, before, closing = steps[idx]
        if idx >= active:
            # Isolated vertices are exempt from both constraints; colour 1
            # is always available and loses no solutions.
            bit[u] = 2
            return solve(idx + 1, (allowed | 4) & full)
        taken = 0
        for w in before:
            taken |= bit[w]
        # _ban_sources' rule on bits: u is uncoloured and adds 0 to each
        # closing rotation, whose XOR is then the parity of N(w) without u
        for rotation in closing:
            parity = 0
            for x in rotation:
                parity ^= bit[x]
            if not parity & (parity - 1):
                taken |= parity
        free = allowed & ~taken
        while free:
            b = free & -free
            free ^= b
            if budget > 0:
                budget -= 1
            elif budget == 0:
                raise ResourceLimitError("node budget exceeded")
            bit[u] = b
            # colour b opens the next colour when it is the largest so far
            if solve(idx + 1, (allowed | b << 1) & full):
                return True
        bit[u] = 0
        return False

    try:
        found = solve(0, 2)
    except RecursionError:
        raise _too_deep(n) from None
    finally:
        # solve holds itself through its closure cell: break that cycle so
        # reference counting frees the tables even with the collector off
        del solve
    if not found:
        return None
    result = Colouring({v: bit[v].bit_length() - 1 for v in g.vertices()})
    if not (is_proper(g, result) and is_odd(g, result)):
        raise AssertionError("solver returned a bad colouring")
    return result


def chi_odd(
    g: EmbeddedGraph, k_max: int, *, node_budget: int | None = None
) -> int | None:
    """Smallest k <= k_max admitting an odd colouring, or None.

    Raises:
        ParameterError: k_max < 1 or a negative node_budget.
        ResourceLimitError: as find_odd_colouring.
    """
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    for k in range(1, k_max + 1):
        if find_odd_colouring(g, k, node_budget=node_budget) is not None:
            return k
    return None


def chi_odd_bruteforce(
    g: EmbeddedGraph, k_max: int, *, node_budget: int | None = BRUTEFORCE_DEFAULT_BUDGET
) -> int | None:
    """Oracle for chi_odd by exhaustive enumeration.

    For each k, walks every proper assignment of {1..k} to the vertices
    in id order (non-proper assignments are cut as soon as an edge goes
    monochromatic; they could never pass the verifier) and accepts the
    first complete assignment that is odd by direct multiset count.  The
    accepted assignment is re-checked with the public verifiers.

    Raises:
        ParameterError: k_max < 1 or a negative node_budget.
        ResourceLimitError: node budget exhausted before a decision, or
            the graph too large for Python's recursion limit.
    """
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    n = g.vertex_count
    rotation = [()] + [g.rotation(v) for v in range(1, n + 1)]
    colour = [0] * (n + 1)
    nodes_left = [_nodes_left(node_budget)]

    def leaf_is_odd() -> bool:
        for v in range(1, n + 1):
            if not rotation[v]:
                continue
            counts: dict[int, int] = {}
            for w in rotation[v]:
                counts[colour[w]] = counts.get(colour[w], 0) + 1
            if all(k % 2 == 0 for k in counts.values()):
                return False
        return True

    def enumerate_from(v: int, k: int) -> bool:
        if v > n:
            return leaf_is_odd()
        if nodes_left[0] == 0:
            raise ResourceLimitError("brute-force budget exceeded")
        for x in range(1, k + 1):
            if any(colour[w] == x for w in rotation[v]):
                continue
            if nodes_left[0] > 0:
                nodes_left[0] -= 1
            elif nodes_left[0] == 0:
                raise ResourceLimitError("brute-force budget exceeded")
            colour[v] = x
            if enumerate_from(v + 1, k):
                return True
            colour[v] = 0
        return False

    for k in range(1, k_max + 1):
        try:
            found = enumerate_from(1, k)
        except RecursionError:
            raise _too_deep(n) from None
        if found:
            result = Colouring({v: colour[v] for v in g.vertices()})
            if not (is_proper(g, result) and is_odd(g, result)):
                raise AssertionError("solver returned a bad colouring")
            return k
    return None
