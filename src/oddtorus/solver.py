"""Exact decision of odd k-colourability and the odd chromatic number.

The solver backtracks over vertices in descending-degree order (ties by
id), trying colours in ascending order with first-occurrence symmetry
breaking: a vertex may use at most one colour beyond the largest colour
used so far, which is sound because all verdicts are invariant under
colour permutation.

Properness bans the colours of v's coloured neighbours.  Oddness is
enforced lazily through the parity of each vertex's coloured neighbours,
the set of colours with odd multiplicity among them
(colouring.odd_colours): a neighbour w of v bans a colour iff v is the
last uncoloured neighbour of w and that set has a single element, and
the banned colour is that element, because colouring v with it would
leave every multiplicity in N(w) even.  The uniqueness of that colour
follows from the representation: each neighbour bans at most one colour,
so together with properness at most 2 deg(v) colours are ever excluded
at v.  The search keeps each parity set as a bit mask (bit x for colour
x <= k), XOR-ed as vertices are coloured and uncoloured, and reads both
bans off bit masks.

chi_odd_bruteforce is an independent oracle: it enumerates proper
assignments exhaustively in vertex-id order, with no symmetry breaking
and no oddness pruning, and filters complete assignments with the
direct multiset definition of oddness.  It shares none of the solver's
machinery, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .colouring import Colouring, is_odd, is_proper, odd_colours
from .embedding import EmbeddedGraph
from .errors import NeighbourUncolouredError, ResourceLimitError

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


def find_odd_colouring(
    g: EmbeddedGraph, k: int, *, node_budget: int | None = None
) -> Colouring | None:
    """A proper odd colouring of g with at most k colours, or None.

    Deterministic for fixed inputs.  Returned colourings are re-checked
    against the verifier before being handed out.

    Raises:
        ResourceLimitError: node budget exhausted before a decision.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.vertex_count
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    rotation = [()] + [g.rotation(v) for v in range(1, n + 1)]
    colour = [0] * (n + 1)
    uncoloured_nbrs = [0] + [g.degree(v) for v in range(1, n + 1)]
    # bit x of mask[v] is set iff x is in odd_colours(colour, coloured
    # neighbours of v)
    mask = [0] * (n + 1)
    nodes_left = [node_budget if node_budget is not None else -1]

    def solve(idx: int, max_used: int) -> bool:
        if idx == n:
            return True
        u = order[idx]
        if nodes_left[0] == 0:
            raise ResourceLimitError("node budget exceeded")
        if not rotation[u]:
            # Isolated vertices are exempt from both constraints; colour 1
            # is always available and loses no solutions.
            colour[u] = 1
            if solve(idx + 1, max(max_used, 1)):
                return True
            colour[u] = 0
            return False
        # Bit x of taken is set iff x is forbidden at u.  Uncoloured
        # neighbours contribute bit 0, and an empty mask bans nothing.
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
    result = Colouring({v: colour[v] for v in g.vertices()})
    assert is_proper(g, result) and is_odd(g, result), "solver returned a bad colouring"
    return result


def chi_odd(
    g: EmbeddedGraph, k_max: int, *, node_budget: int | None = None
) -> int | None:
    """Smallest k <= k_max admitting an odd colouring, or None."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
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
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    n = g.vertex_count
    rotation = [()] + [g.rotation(v) for v in range(1, n + 1)]
    colour = [0] * (n + 1)
    nodes_left = [node_budget if node_budget is not None else -1]

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
        if enumerate_from(1, k):
            result = Colouring({v: colour[v] for v in g.vertices()})
            assert is_proper(g, result) and is_odd(g, result)
            return k
    return None
