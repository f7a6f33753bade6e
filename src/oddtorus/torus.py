"""Altshuler's 6-regular torus triangulations T(m, n, t).

The graph T(m,n,t) lives on the vertex grid {(i,j) : 1 <= i <= m,
1 <= j <= n}, with the second coordinate read modulo n:

    (i,j) ~ (i,j+1)                 for all i, j
    (i,j) ~ (i+1,j), (i+1,j-1)      for 1 <= i < m
    (m,j) ~ (1,j-t), (1,j-t-1)      for all j

i.e. a triangulated m x n grid whose rows wrap directly and whose last
column wraps onto the first with a shift of t.  The rotation at each
vertex lists the six neighbours in the cyclic order induced by the grid
drawing (east, north-east diagonal, north, west, south-west diagonal,
south, in matrix orientation), wrap partners taking the slot of the
grid neighbour they replace.  That order makes face tracing recover the
2mn grid triangles.

Not every parameter triple yields a simple graph; simplicity is decided
by materializing the adjacency rules and looking for a loop or repeated
neighbour, never by a closed-form predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import EmbeddedGraph, build_embedded_graph
from .errors import NotSimpleError


@dataclass(frozen=True)
class TorusParams:
    """Parameters (m, n, t): m columns, n rows, shift 0 <= t < n."""

    m: int
    n: int
    t: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.t < self.n:
            raise ValueError(f"t must satisfy 0 <= t < n, got t={self.t}, n={self.n}")

    def __str__(self) -> str:
        return f"({self.m},{self.n},{self.t})"


def vertex_id(p: TorusParams, i: int, j: int) -> int:
    """Flatten grid coordinates to the 1-based id (i-1)*n + j."""
    return (i - 1) * p.n + ((j - 1) % p.n) + 1


def vertex_coords(p: TorusParams, v: int) -> tuple[int, int]:
    """Inverse of vertex_id."""
    return (v - 1) // p.n + 1, (v - 1) % p.n + 1


def neighbour_slots(p: TorusParams, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """The six neighbours of (i,j) in rotation order, coordinates normalized.

    Order: east, north-east diagonal, north, west, south-west diagonal,
    south.  For i = m the east pair wraps to column 1 with shift t; for
    i = 1 the west pair wraps to column m.
    """
    m, n, t = p.m, p.n, p.t
    if i < m:
        east, north_east = (i + 1, j), (i + 1, j - 1)
    else:
        east, north_east = (1, j - t), (1, j - t - 1)
    if i > 1:
        west, south_west = (i - 1, j), (i - 1, j + 1)
    else:
        west, south_west = (m, j + t), (m, j + t + 1)
    slots = (east, north_east, (i, j - 1), west, south_west, (i, j + 1))
    return tuple((si, (sj - 1) % n + 1) for si, sj in slots)


def _simple_slots(p: TorusParams):
    """Yield the neighbour slots of each vertex of T(p) in vertex order.

    Raises:
        NotSimpleError: at the first loop or repeated neighbour met.
    """
    for i in range(1, p.m + 1):
        for j in range(1, p.n + 1):
            slots = neighbour_slots(p, i, j)
            if (i, j) in slots:
                raise NotSimpleError((p.m, p.n, p.t), f"self-loop at ({i},{j})")
            seen = set()
            for s in slots:
                if s in seen:
                    raise NotSimpleError(
                        (p.m, p.n, p.t), f"vertex ({i},{j}) lists ({s[0]},{s[1]}) twice"
                    )
                seen.add(s)
            yield slots


def simplicity_witness(p: TorusParams) -> str | None:
    """None if T(p) is simple, else a description of the violation found."""
    try:
        for _ in _simple_slots(p):
            pass
    except NotSimpleError as exc:
        return exc.witness
    return None


def is_simple(p: TorusParams) -> bool:
    return simplicity_witness(p) is None


def generate(p: TorusParams) -> EmbeddedGraph:
    """Build T(p) with its canonical rotation system.

    Simplicity is decided in the same pass that builds the rotations.

    Raises:
        NotSimpleError: with a witness, if the rules produce a loop or
            parallel edge.
    """
    return build_embedded_graph(
        [tuple(vertex_id(p, si, sj) for si, sj in slots) for slots in _simple_slots(p)]
    )


def canonical_m1(n: int, t: int) -> tuple[int, int]:
    """Canonical shift for m = 1: T(1,n,t) and T(1,n,n-(t+1)) coincide.

    Both parameterizations give adjacency differences {1, t, t+1} mod n,
    so the smaller of t and n-(t+1) is chosen, putting t < n/2.
    """
    if not 0 <= t < n:
        raise ValueError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
    return n, min(t, n - (t + 1))
