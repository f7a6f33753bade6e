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

Vertex (i,j) has the flat id (i-1)*n + j, and the rotations are built
on those ids directly: column i's partners in columns i+1 and i-1 sit at
offsets +n and -n, rows step through precomputed up/down lists, and only
the wrap columns use t.  Coordinates are derived only to word a witness.

Not every parameter triple yields a simple graph; simplicity is decided
by materializing every rotation and looking for a loop or repeated
neighbour in it, never by a closed-form predicate.  generate and
simplicity_witness make that decision in one shared pass.  The
rotations it accepts are in range and symmetric by construction, so
generate hands them to EmbeddedGraph directly rather than re-checking
them in build_embedded_graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import NotSimpleError, ParameterError


@dataclass(frozen=True)
class TorusParams:
    """Parameters (m, n, t): m columns, n rows, shift 0 <= t < n."""

    m: int
    n: int
    t: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"m must be positive, got {self.m}")
        if self.n < 1:
            raise ParameterError(f"n must be positive, got {self.n}")
        if not 0 <= self.t < self.n:
            raise ParameterError(f"t must satisfy 0 <= t < n, got t={self.t}, n={self.n}")

    def __str__(self) -> str:
        return f"({self.m},{self.n},{self.t})"


def vertex_id(p: TorusParams, i: int, j: int) -> int:
    """Flatten grid coordinates to the 1-based id (i-1)*n + j."""
    return (i - 1) * p.n + ((j - 1) % p.n) + 1


def vertex_coords(p: TorusParams, v: int) -> tuple[int, int]:
    """Inverse of vertex_id."""
    return (v - 1) // p.n + 1, (v - 1) % p.n + 1


def _rotation_system(p: TorusParams) -> tuple[tuple[int, ...], ...]:
    """The rotations of T(p), index 0 a dummy entry.  Each column's six
    neighbour-id lists (east, north-east, north, west, south-west, south)
    are zipped into its rotations.

    Raises:
        NotSimpleError: the first vertex in id order whose rotation holds
            itself or repeats a neighbour.
    """
    m, n, t = p.m, p.n, p.t
    rows = range(1, n + 1)
    up = [n, *range(1, n)]  # row j-1
    down = [*range(2, n + 1), 1]  # row j+1
    last = (m - 1) * n  # ids of column m start after this offset
    rotation: list[tuple[int, ...]] = [()]
    for base in range(0, m * n, n):
        if base < last:
            east = [base + n + j for j in rows]
            north_east = [base + n + j for j in up]
        else:  # (1, j-t) and (1, j-t-1)
            east = [(j - t - 1) % n + 1 for j in rows]
            north_east = [(j - t - 2) % n + 1 for j in rows]
        if base:
            west = [base - n + j for j in rows]
            south_west = [base - n + j for j in down]
        else:  # (m, j+t) and (m, j+t+1)
            west = [last + (j + t - 1) % n + 1 for j in rows]
            south_west = [last + (j + t) % n + 1 for j in rows]
        north = [base + j for j in up]
        south = [base + j for j in down]
        rotation += zip(east, north_east, north, west, south_west, south)
    # A repeat leaves a neighbour set smaller than six, and so does a
    # loop: opposite slots (east/west, north-east/south-west, north/south)
    # are opposite steps on the torus, so a vertex that lists itself in
    # one slot lists itself in the other too.
    if sum(map(len, map(frozenset, rotation))) < 6 * m * n:
        raise NotSimpleError((m, n, t), _witness(p, rotation))
    return tuple(rotation)


def _witness(p: TorusParams, rotation) -> str:
    """The violation at the first offending vertex of a non-simple T(p):
    its self-loop, else its first neighbour repeated in rotation order."""
    for v, rot in enumerate(rotation):
        if v in rot:
            return "self-loop at ({},{})".format(*vertex_coords(p, v))
        if len(frozenset(rot)) < len(rot):
            w = next(w for k, w in enumerate(rot) if w in rot[:k])
            return "vertex ({},{}) lists ({},{}) twice".format(
                *vertex_coords(p, v), *vertex_coords(p, w)
            )
    raise AssertionError(f"T{p} has no loop or repeated neighbour")


def simplicity_witness(p: TorusParams) -> str | None:
    """None if T(p) is simple, else a description of the violation found."""
    try:
        _rotation_system(p)
    except NotSimpleError as exc:
        return exc.witness
    return None


def is_simple(p: TorusParams) -> bool:
    return simplicity_witness(p) is None


def generate(p: TorusParams) -> EmbeddedGraph:
    """Build T(p) with its canonical rotation system.

    Simplicity is decided in the same pass that builds the rotations.
    Ids are in range and every edge is listed from both ends by
    construction, so the graph skips build_embedded_graph's checks.

    Raises:
        NotSimpleError: with a witness, if the rules produce a loop or
            parallel edge.
    """
    return EmbeddedGraph(_rotation_system(p))


def canonical_m1(n: int, t: int) -> tuple[int, int]:
    """Canonical shift for m = 1: T(1,n,t) and T(1,n,n-(t+1)) coincide.

    Both parameterizations give adjacency differences {1, t, t+1} mod n,
    so the smaller of t and n-(t+1) is chosen, putting t < n/2.
    """
    if not 0 <= t < n:
        raise ParameterError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
    return n, min(t, n - (t + 1))
