"""Colourings and the proper / odd / conflict-free / nice verdicts.

A colouring is odd at a vertex when some colour has odd multiplicity
among its neighbours, and conflict-free when some colour has
multiplicity exactly one; isolated vertices are exempt from both.  A
nice colouring is proper, odd, and uses colours from {1..9} only.

Oddness is a parity question, answered everywhere by odd_colours: the
set of colours with odd multiplicity in a neighbourhood, so a vertex is
odd iff that set is non-empty.  The solver's evening-out ban asks the
same question of a neighbourhood with one vertex left to colour.
solver._ban_sources names those neighbourhoods once for both of its
evaluations: forbidden_colours computes their parity with odd_colours,
and the search's hot loop computes the same set as an XOR of colour bits
1 << x, which is safe there because its colours are at most k.  The set
form holds for any colour value.

Each verdict has a witness variant returning the first offending edge
or vertex (None when the check passes); the boolean verifiers are thin
wrappers over those.  The general verifiers accept any positive colours,
only the nice check enforces the 9-colour bound.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import PartialColouringError

NICE_COLOUR_BOUND = 9


@dataclass(frozen=True)
class Colouring:
    """Total assignment vertex id -> positive colour."""

    assignment: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        for v, c in self.assignment.items():
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"colour of vertex {v} must be a positive int, got {c!r}")

    def __getitem__(self, v: int) -> int:
        return self.assignment[v]

    def colours_used(self) -> frozenset[int]:
        return frozenset(self.assignment.values())

    @property
    def colour_count(self) -> int:
        return len(self.colours_used())

    def with_recoloured(self, changes: Mapping[int, int]) -> "Colouring":
        merged = dict(self.assignment)
        merged.update(changes)
        return Colouring(merged)


def check_total(g: EmbeddedGraph, c: Colouring) -> None:
    missing = [v for v in g.vertices() if v not in c.assignment]
    if missing:
        raise PartialColouringError(f"vertices without a colour: {missing[:5]}")


def proper_witness(g: EmbeddedGraph, c: Colouring) -> tuple[int, int] | None:
    """First monochromatic edge, or None if the colouring is proper."""
    check_total(g, c)
    colour = c.assignment
    for u in g.vertices():
        cu = colour[u]
        for v in g.rotation(u):
            if u < v and colour[v] == cu:
                return (u, v)
    return None


def odd_colours(colour: Mapping[int, int], nbrs: Iterable[int]) -> set[int]:
    """The colours with odd multiplicity among nbrs under colour."""
    odd: set[int] = set()
    for w in nbrs:
        odd ^= {colour[w]}
    return odd


def odd_witness(g: EmbeddedGraph, c: Colouring) -> int | None:
    """First non-isolated vertex with an all-even neighbourhood, or None."""
    check_total(g, c)
    for v in g.vertices():
        rot = g.rotation(v)
        if rot and not odd_colours(c.assignment, rot):
            return v
    return None


def conflict_free_witness(g: EmbeddedGraph, c: Colouring) -> int | None:
    """First non-isolated vertex with no colour of multiplicity 1, or None."""
    check_total(g, c)
    for v in g.vertices():
        rot = g.rotation(v)
        if not rot:
            continue
        counts = Counter(c[w] for w in rot)
        if 1 not in counts.values():
            return v
    return None


def nice_verdict(
    c: Colouring, edge: tuple[int, int] | None, vertex: int | None
) -> str | None:
    """The nice_witness of c given its proper and odd witnesses: the
    colour bound is checked here, the rest is read off the witnesses."""
    over = sorted(x for x in c.colours_used() if x > NICE_COLOUR_BOUND)
    if over:
        return f"colour {over[0]} exceeds {NICE_COLOUR_BOUND}"
    if edge is not None:
        return f"edge {edge} is monochromatic (colour {c[edge[0]]})"
    if vertex is not None:
        return f"vertex {vertex} has no odd colour in its neighbourhood"
    return None


def nice_witness(g: EmbeddedGraph, c: Colouring) -> str | None:
    """Description of the first nice-colouring violation, or None."""
    edge = proper_witness(g, c)
    return nice_verdict(c, edge, None if edge is not None else odd_witness(g, c))


def is_proper(g: EmbeddedGraph, c: Colouring) -> bool:
    return proper_witness(g, c) is None


def is_odd(g: EmbeddedGraph, c: Colouring) -> bool:
    return odd_witness(g, c) is None


def is_conflict_free(g: EmbeddedGraph, c: Colouring) -> bool:
    return conflict_free_witness(g, c) is None


def is_nice(g: EmbeddedGraph, c: Colouring) -> bool:
    return nice_witness(g, c) is None
