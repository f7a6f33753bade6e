"""Exact decision of odd k-colourability and the odd chromatic number.

The solver backtracks over vertices in a static order, descending degree
with ties by id, trying colours in ascending order with first-occurrence
symmetry breaking: a vertex may use at most one colour beyond the
largest colour used so far, which is sound because all verdicts are
invariant under colour permutation.

Properness bans the colours of v's coloured neighbours.  Oddness is
enforced lazily through the parity of each vertex's coloured neighbours,
the set of colours with odd multiplicity among them
(colouring.odd_colours): a neighbour w of v bans a colour iff v is the
last uncoloured neighbour of w and that set has a single element, and
the banned colour is that element, because colouring v with it would
leave every multiplicity in N(w) even.  The uniqueness of that colour
follows from the representation: each neighbour bans at most one colour,
so together with properness at most 2 deg(v) colours are ever excluded
at v.

Because the order is static, both bans are known per step before the
search starts: step i colours order[i], its neighbours earlier in the
order are exactly the coloured ones, and the neighbours w whose last
neighbour in the order is order[i] are exactly those that can ban a
colour by evening out.  The search builds that table once and codes
each colour x <= k as the bit 1 << x (0 while uncoloured), so a step ORs
its earlier neighbours' bits and, for each closing neighbour w, XORs the
bits over the rotation of w (the uncoloured vertex adds 0) to get the
parity set of N(w) as a bit mask.  Nothing is updated or undone when a
colour is tried beyond storing its bit.

chi_odd_bruteforce is an independent oracle: it enumerates proper
assignments exhaustively in vertex-id order, with no symmetry breaking
and no oddness pruning, and filters complete assignments with the
direct multiset definition of oddness.  It shares none of the solver's
machinery, so agreement between the two is meaningful evidence.

Both searches recurse once per vertex; a graph too large for Python's
recursion limit raises ResourceLimitError rather than RecursionError.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
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


def forbidden_colours(
    g: EmbeddedGraph, pc: PartialColouring, v: int, *, relaxed: bool = False
) -> set[int]:
    """Colours unusable at the uncoloured vertex v.

    The union of the colours of v's neighbours (forbidden by properness)
    and the evening-out bans (forbidden by oddness): a neighbour w bans a
    colour iff v is its only uncoloured neighbour and its other
    neighbours have a single colour of odd multiplicity, and the banned
    colour is that one.  Each neighbour bans at most one colour, so the
    result has at most 2 deg(v) elements.

    Raises:
        NeighbourUncolouredError: some neighbour of v is uncoloured and
            relaxed is False.  With relaxed=True such neighbours are
            skipped instead.
    """
    if v in pc.assignment:
        raise ValueError(f"vertex {v} is already coloured")
    forbidden: set[int] = set()
    for w in g.rotation(v):
        if w in pc.assignment:
            forbidden.add(pc.assignment[w])
        elif not relaxed:
            raise NeighbourUncolouredError(f"neighbour {w} of {v} is uncoloured")
        others = [x for x in g.rotation(w) if x != v]
        if all(x in pc.assignment for x in others):
            odd = odd_colours(pc.assignment, others)
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
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    position = {v: i for i, v in enumerate(order)}
    # last[w]: the position of the last neighbour of w in the order
    last = [-1] + [max((position[x] for x in g.rotation(w)), default=-1)
                   for w in g.vertices()]
    # Step i colours order[i]: its earlier neighbours ban their colours,
    # and each neighbour w with last[w] == i bans the one colour of odd
    # multiplicity in N(w), if there is exactly one.
    steps = [
        (
            u,
            tuple(w for w in g.rotation(u) if position[w] < i),
            tuple(g.rotation(w) for w in g.rotation(u) if last[w] == i),
        )
        for i, u in enumerate(order)
    ]
    # degree order puts the isolated vertices last
    active = sum(1 for v in order if g.degree(v))
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
        for rotation in closing:
            # u is uncoloured and adds 0: this is N(w) without u
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
