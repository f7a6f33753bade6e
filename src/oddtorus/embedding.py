"""Rotation-system embeddings of simple graphs.

A simple graph together with a cyclic order of the neighbours around each
vertex (a rotation system) determines a cellular embedding in an
orientable surface.  Faces are traced with a fixed left-face convention:

    the successor of the directed edge (u, v) is (v, w), where w
    immediately follows u in the rotation at v.

Every directed edge lies on exactly one face walk, so the traced faces
partition the 2|E| directed edges and V - E + F recovers the Euler
characteristic of the carrier surface (2 for the sphere, 0 for the
torus).  Any fixed convention yields the same face multiset; fixing this
one makes walks reproducible byte for byte.

Vertex ids are dense 1-based integers.  Index 0 of internal tables is a
dummy entry, as is conventional for 1-indexed combinatorics.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    AsymmetricRotationError,
    DisconnectedGraphError,
    NeighbourRangeError,
    RepeatedNeighbourError,
    SelfLoopError,
)


class EmbeddedGraph:
    """Immutable simple graph with a combinatorial embedding.

    It stores the rotation tuples alone; neighbours and edges are read off
    them.  Construct through :func:`build_embedded_graph`, which validates
    the rotation system, unless the rotations are valid by construction
    (as in :func:`oddtorus.torus.generate`).  Isolated vertices (empty
    rotations) are permitted.
    """

    __slots__ = ("_rotation", "_edge_count")

    def __init__(self, rotation: tuple[tuple[int, ...], ...]):
        # rotation[0] is the dummy entry; validation happens in
        # build_embedded_graph so this stays a cheap trusted constructor.
        self._rotation = rotation
        self._edge_count = sum(map(len, rotation)) // 2

    @property
    def vertex_count(self) -> int:
        return len(self._rotation) - 1

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        return range(1, len(self._rotation))

    def rotation(self, v: int) -> tuple[int, ...]:
        """Cyclic neighbour order at v."""
        return self._rotation[v]

    def degree(self, v: int) -> int:
        return len(self._rotation[v])

    def neighbours(self, v: int) -> frozenset[int]:
        return frozenset(self._rotation[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._rotation[u]

    def edges(self):
        """Undirected edges as (u, v) with u < v, in vertex order."""
        for u in self.vertices():
            for v in self._rotation[u]:
                if u < v:
                    yield (u, v)

    def directed_edges(self):
        for u in self.vertices():
            for v in self._rotation[u]:
                yield (u, v)

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n <= 1:
            return True
        seen = [False] * (n + 1)
        stack = [1]
        seen[1] = True
        count = 1
        while stack:
            u = stack.pop()
            for w in self._rotation[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def __eq__(self, other) -> bool:
        return isinstance(other, EmbeddedGraph) and self._rotation == other._rotation

    def __hash__(self) -> int:
        return hash(self._rotation)

    def __repr__(self) -> str:
        return f"EmbeddedGraph(V={self.vertex_count}, E={self.edge_count})"


@dataclass(frozen=True)
class Face:
    """One traced face: a closed walk of directed edges.

    The walk starts at its lexicographically smallest directed edge.  The
    size of the face counts vertex appearances with multiplicity, which
    equals the number of directed edges on the walk.
    """

    walk: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.walk)

    @property
    def boundary_vertices(self) -> tuple[int, ...]:
        """Vertex appearances in walk order (with multiplicity)."""
        return tuple(u for u, _ in self.walk)


def build_embedded_graph(
    rotations: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
) -> EmbeddedGraph:
    """Validate a rotation system and wrap it in an EmbeddedGraph.

    Accepts either a mapping {vertex: neighbour sequence} whose keys must
    be exactly 1..n, or a plain sequence of neighbour sequences which is
    taken to describe vertices 1..n in order.

    Raises:
        NeighbourRangeError: a neighbour id outside 1..n (a ValueError).
        SelfLoopError: a vertex lists itself.
        RepeatedNeighbourError: a neighbour repeated within one rotation.
        AsymmetricRotationError: u lists v but v does not list u.
        ValueError: malformed keys or an empty graph.

    Each GraphError carries the offending vertex as its ``vertex``.
    """
    if isinstance(rotations, Mapping):
        n = len(rotations)
        if set(rotations.keys()) != set(range(1, n + 1)):
            raise ValueError("rotation keys must be exactly 1..n")
        table = [()] + [tuple(rotations[v]) for v in range(1, n + 1)]
    else:
        table = [()] + [tuple(seq) for seq in rotations]
    n = len(table) - 1
    if n < 1:
        raise ValueError("graph must have at least one vertex")

    sets = [frozenset()]
    for v in range(1, n + 1):
        for w in table[v]:
            if not isinstance(w, int) or not (1 <= w <= n):
                raise NeighbourRangeError(
                    f"vertex {v} lists out-of-range neighbour {w!r}", vertex=v
                )
        nbrs = frozenset(table[v])
        if v in nbrs:
            raise SelfLoopError(f"vertex {v} lists itself", vertex=v)
        if len(nbrs) != len(table[v]):
            raise RepeatedNeighbourError(f"vertex {v} repeats a neighbour", vertex=v)
        sets.append(nbrs)

    for v in range(1, n + 1):
        for w in table[v]:
            if v not in sets[w]:
                raise AsymmetricRotationError(
                    f"vertex {v} lists {w} but {w} does not list {v}", vertex=v
                )

    return EmbeddedGraph(tuple(table))


def trace_faces(g: EmbeddedGraph) -> list[Face]:
    """Trace all faces of the embedding.

    The faces partition the directed edges; the sum of face sizes is
    2|E|.  Directed edges are visited in ascending order (vertex by
    vertex, neighbours sorted), so each face walk begins at its smallest
    directed edge and the returned list is sorted by that edge.  Tracing
    (u, v) pops u from the next-after table of v, which marks it traced.
    """
    # next_after[v][u] = neighbour following u in rotation(v)
    next_after: list[dict[int, int]] = [{}]
    for v in g.vertices():
        rot = g.rotation(v)
        next_after.append(dict(zip(rot, rot[1:] + rot[:1])))

    faces: list[Face] = []
    for u0 in g.vertices():
        for v0 in sorted(g.rotation(u0)):
            if u0 not in next_after[v0]:
                continue
            walk = []
            u, v = u0, v0
            while (w := next_after[v].pop(u, None)) is not None:
                walk.append((u, v))
                u, v = v, w
            if (u, v) != (u0, v0):
                raise AssertionError("face tracing did not close; invalid rotation system")
            faces.append(Face(tuple(walk)))
    return faces


def _surface(g: EmbeddedGraph) -> tuple[int, int, bool]:
    """Face count, chi and the 6-regular torus triangulation verdict of a
    connected embedding, from one trace."""
    faces = trace_faces(g)
    chi = g.vertex_count - g.edge_count + len(faces)
    regular = all(g.degree(v) == 6 for v in g.vertices())
    return len(faces), chi, chi == 0 and regular and all(f.size == 3 for f in faces)


def euler_characteristic(g: EmbeddedGraph) -> int:
    """V - E + F for the embedding; 2 on the sphere, 0 on the torus.

    Raises:
        DisconnectedGraphError: per-component characteristics are out of
            contract.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("Euler characteristic requires a connected graph")
    return _surface(g)[1]


def is_6regular_triangulation(g: EmbeddedGraph) -> bool:
    """True iff every degree is 6, every face a triangle, and chi = 0."""
    if not g.is_connected():
        raise DisconnectedGraphError("triangulation check requires a connected graph")
    return _surface(g)[2]
