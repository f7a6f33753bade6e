"""Constructive nice colourings of the torus triangulations T(m,n,t).

The nine colours split into classes C1 = {1,2,3}, C2 = {4,5,6},
C3 = {7,8,9}.  For m >= 3 a base colouring assigns one class per column
(class index = column index mod 3, with C2 in column m when m = 1 mod 3)
and cycles through the class down the column (within-class index = row
mod 3, with index 2 in row n when n = 1 mod 3).  A column or row is bad
when its two neighbours carry the same class (respectively the same
colour set); vertices that are bad both ways are the only places the
base colouring can fail to be odd, and each residue pair (m mod 3,
n mod 3) has its own small recolouring that repairs them.

For m = 2 the two columns use C1 and C2 and two vertices are recoloured
7 and 8, found by a deterministic search.  For m = 1 the vertex circle
is cut into intervals of length t, the intervals are distributed over
the three classes, and each class is coloured along the induced paths
(a single induced cycle appears when there are exactly four intervals).

Every constructed colouring is verified nice before being returned;
ConstructionFailedError signals a contract violation, never a
recoverable condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import Colouring, nice_witness
from .embedding import EmbeddedGraph
from .errors import ConstructionFailedError
from .torus import TorusParams, canonical_m1, generate, vertex_id

COLOUR_CLASSES = ((1, 2, 3), (4, 5, 6), (7, 8, 9))


def column_class(m: int, i: int) -> int:
    """Class index (1..3) used in column i."""
    if m % 3 == 1 and i == m:
        return 2
    return (i - 1) % 3 + 1


def row_within_index(n: int, j: int) -> int:
    """Within-class index (1..3) used in row j."""
    if n % 3 == 1 and j == n:
        return 2
    return (j - 1) % 3 + 1


def base_colouring(m: int, n: int) -> Colouring:
    """Column-class base colouring of the m x n grid; independent of t."""
    if m < 2 or n < 3:
        raise ValueError("base colouring needs m >= 2 and n >= 3")
    p = TorusParams(m, n, 0)
    assignment = {}
    for i in range(1, m + 1):
        cls = COLOUR_CLASSES[column_class(m, i) - 1]
        for j in range(1, n + 1):
            assignment[vertex_id(p, i, j)] = cls[row_within_index(n, j) - 1]
    return Colouring(assignment)


@dataclass(frozen=True)
class ColumnRowClassification:
    """Bad columns, bad rows, and their intersection for the base colouring."""

    bad_columns: frozenset[int]
    bad_rows: frozenset[int]
    bad_vertices: frozenset[tuple[int, int]]


def _bad_lines(k: int) -> tuple[int, ...]:
    if k % 3 == 0:
        return ()
    if k % 3 == 1:
        return (1, k - 1)
    return (1, k)


def classify(m: int, n: int) -> ColumnRowClassification:
    """Bad-column / bad-row structure of base_colouring(m, n), m, n >= 3."""
    if m < 3 or n < 3:
        raise ValueError("classification needs m >= 3 and n >= 3")
    cols = _bad_lines(m)
    rows = _bad_lines(n)
    return ColumnRowClassification(
        bad_columns=frozenset(cols),
        bad_rows=frozenset(rows),
        bad_vertices=frozenset((i, j) for i in cols for j in rows),
    )


def _absent_class_colour(
    g: EmbeddedGraph, c: Colouring, w: int, class_idx: int, p: TorusParams
) -> int:
    """The unique colour of the given class not present in N(w) under c."""
    cls = COLOUR_CLASSES[class_idx - 1]
    present = {c[x] for x in g.rotation(w)}
    candidates = [x for x in cls if x not in present]
    if len(candidates) != 1:
        raise ConstructionFailedError(
            (p.m, p.n, p.t),
            f"expected exactly one absent colour of class {class_idx} at vertex {w},"
            f" found {candidates}",
        )
    return candidates[0]


def _require_nice(g: EmbeddedGraph, c: Colouring, p: TorusParams) -> Colouring:
    witness = nice_witness(g, c)
    if witness is not None:
        raise ConstructionFailedError((p.m, p.n, p.t), witness)
    return c


def colour_m_ge3(p: TorusParams) -> Colouring:
    """Nice colouring of T(m,n,t) for m >= 3: the base colouring, with
    the residue-specific repair applied around the bad vertices."""
    if p.m < 3:
        raise ValueError("colour_m_ge3 needs m >= 3")
    m, n = p.m, p.n
    g = generate(p)
    base = base_colouring(m, n)
    if m % 3 == 0 or n % 3 == 0:
        return _require_nice(g, base, p)

    changes: dict[int, int] = {}
    if m % 3 == 1 and n % 3 == 1:
        # Each bad vertex (i,j) delegates to its neighbour w = (i+1, j-1),
        # recoloured into the class unused by columns i and i+1.
        for i in (1, m - 1):
            third = 6 - column_class(m, i) - column_class(m, i + 1)
            for j in (1, n - 1):
                w = vertex_id(p, i + 1, j - 1)
                changes[w] = _absent_class_colour(g, base, w, third, p)
    elif m % 3 == 1 and n % 3 == 2:
        changes[vertex_id(p, 2, n)] = 9
        w = vertex_id(p, m, n)
        changes[w] = _absent_class_colour(g, base, w, 1, p)
    elif m % 3 == 2 and n % 3 == 1:
        changes[vertex_id(p, 2, n)] = 7
        changes[vertex_id(p, m - 1, 2)] = 7
        changes[vertex_id(p, 2, n - 2)] = 9
        changes[vertex_id(p, m - 1, n)] = 9
    else:  # m % 3 == 2, n % 3 == 2
        changes[vertex_id(p, 2, n)] = 9
        changes[vertex_id(p, m - 1, 1)] = 9
    return _require_nice(g, base.with_recoloured(changes), p)


def colour_m2(p: TorusParams) -> Colouring:
    """Nice colouring of T(2,n,t).

    With no bad rows (n = 0 mod 3) the base colouring already works.
    Otherwise two vertices get the fresh colours 7 and 8; the pair is
    found by trying ordered pairs of distinct non-adjacent vertices in
    lexicographic order and accepting the first that verifies nice.
    """
    if p.m != 2:
        raise ValueError("colour_m2 needs m = 2")
    g = generate(p)
    base = base_colouring(2, p.n)
    if p.n % 3 == 0:
        return _require_nice(g, base, p)
    for u in g.vertices():
        for w in g.vertices():
            if w == u or g.has_edge(u, w):
                continue
            candidate = base.with_recoloured({u: 7, w: 8})
            if nice_witness(g, candidate) is None:
                return candidate
    raise ConstructionFailedError(
        (p.m, p.n, p.t), "no recolouring pair produced a nice colouring"
    )


@dataclass(frozen=True)
class IntervalPartition:
    """The intervals I_1..I_r of the m = 1 circle and their class indices.

    I_k = {(k-1)t+1 .. kt} for k <= floor(n/t); a shorter residual
    interval absorbs the remaining vertices when t does not divide n.
    Classes repeat 1,2,3 along the intervals, except that the last
    interval moves to class 2 when r = 1 mod 3, and the last two move to
    classes 2 and 3 when r = 2 mod 3.
    """

    n: int
    t: int
    r: int
    intervals: tuple[tuple[int, ...], ...]
    interval_class: tuple[int, ...]

    @classmethod
    def build(cls, n: int, t: int) -> "IntervalPartition":
        if t < 1:
            raise ValueError("interval length t must be positive")
        r = -(-n // t)
        if r < 3:
            raise ValueError(f"need at least 3 intervals, got r={r} for n={n}, t={t}")
        full = n // t
        intervals = [tuple(range((k - 1) * t + 1, k * t + 1)) for k in range(1, full + 1)]
        if n % t:
            intervals.append(tuple(range(full * t + 1, n + 1)))
        classes = [(k - 1) % 3 + 1 for k in range(1, r + 1)]
        if r % 3 == 1:
            classes[r - 1] = 2
        elif r % 3 == 2:
            classes[r - 2] = 2
            classes[r - 1] = 3
        return cls(n, t, r, tuple(intervals), tuple(classes))

    def class_members(self, class_idx: int) -> tuple[int, ...]:
        out = []
        for interval, ci in zip(self.intervals, self.interval_class):
            if ci == class_idx:
                out.extend(interval)
        return tuple(sorted(out))


def _induced_components(g: EmbeddedGraph, members: tuple[int, ...]):
    """Connected components of the induced subgraph, with adjacency.

    Returns a list of (vertices, adjacency) pairs sorted by smallest
    vertex; adjacency maps each vertex to its sorted induced neighbours.
    """
    member_set = set(members)
    adjacency = {
        v: sorted(w for w in g.rotation(v) if w in member_set) for v in members
    }
    seen: set[int] = set()
    components = []
    for v in sorted(members):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        components.append((sorted(comp), adjacency))
    return components


def _order_along(comp: list[int], adjacency) -> tuple[list[int], bool]:
    """Order a degree <= 2 component along its path or cycle.

    Paths start at the smaller endpoint; cycles start at the smallest
    vertex and step towards its smaller neighbour.  Returns the ordered
    vertices and whether the component is a cycle.
    """
    degrees = {v: len(adjacency[v]) for v in comp}
    if any(d > 2 for d in degrees.values()):
        raise AssertionError("induced class subgraph is not a union of paths/cycles")
    endpoints = sorted(v for v in comp if degrees[v] <= 1)
    is_cycle = not endpoints
    start = min(comp) if is_cycle else endpoints[0]
    order = [start]
    prev = None
    while len(order) < len(comp):
        nxt = [w for w in adjacency[order[-1]] if w != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order, is_cycle


def _cycle_pattern(length: int) -> list[int]:
    """Within-class indices for a proper cycle colouring: repeat 1,2,3
    and close with a short tail (2 or 2,3) when the length is not a
    multiple of 3.  The tail placement pins any non-odd cycle positions
    strictly before the final position, which the r = 4 construction
    reserves for the vertex whose oddness the cycle itself must supply.
    """
    pattern = [1, 2, 3] * (length // 3)
    rem = length % 3
    if rem == 1:
        pattern.append(2)
    elif rem == 2:
        pattern.extend([2, 3])
    return pattern


def colour_m1(n: int, t: int) -> Colouring:
    """Nice colouring of T(1,n,t) via the interval partition.

    The intervals are cut with the canonical shift, which gives the same
    graph (see canonical_m1).  Each class is coloured along its induced
    paths by repeating the class; when r = 4 the class-2 subgraph is a
    cycle and gets the tail-closed cycle pattern starting at vertex t+1.
    """
    p = TorusParams(1, n, t)
    g = generate(p)
    part = IntervalPartition.build(*canonical_m1(n, t))

    assignment: dict[int, int] = {}
    for class_idx in (1, 2, 3):
        cls = COLOUR_CLASSES[class_idx - 1]
        for comp, adjacency in _induced_components(g, part.class_members(class_idx)):
            order, is_cycle = _order_along(comp, adjacency)
            if is_cycle:
                pattern = _cycle_pattern(len(order))
            else:
                pattern = [k % 3 + 1 for k in range(len(order))]
            for v, idx in zip(order, pattern):
                assignment[v] = cls[idx - 1]
    return _require_nice(g, Colouring(assignment), p)


def colour_torus(p: TorusParams) -> Colouring:
    """Nice colouring of any simple T(m,n,t): dispatch on m.

    Raises:
        NotSimpleError: T(p) has a loop or parallel edge.
    """
    if p.m >= 3:
        return colour_m_ge3(p)
    if p.m == 2:
        return colour_m2(p)
    return colour_m1(p.n, p.t)
