"""Constructive nice colourings of the torus triangulations T(m,n,t).

The nine colours split into classes C1 = {1,2,3}, C2 = {4,5,6},
C3 = {7,8,9}.  For m >= 3 a base colouring gives cell (i,j) colour
idx(n, j) of class idx(m, i), where line k of size lines has index
idx(size, k) = (k-1) mod 3 + 1, or 2 at k = size = 1 (mod 3).  A column
or row is bad when its two neighbours carry the same class (respectively
the same colour set); vertices that are bad both ways are the only
places the base colouring can fail to be odd, and each residue pair
(m mod 3, n mod 3) has its own small recolouring that repairs them: the
closed form table repairs(p), which colour_m2 and colour_m_ge3 apply.

When m = n = 1 (mod 3), each bad vertex (i,j) hands its repair to
w = (i+1, j-1), which takes the colour absent from N(w) of the class
third = 6 - idx(m, i) - idx(m, i+1).  Only w's next column carries
that class, at rows a and a-1 (a is w's row, or that row - t when w is
in column m), so with rows read mod n, the absent colour has index
6 - idx(n, a) - idx(n, a-1).  When m = 1 and n = 2 (mod 3), (m,n) is
recoloured into class 1 by the same rule.

For m = 2 the columns use C1 and C2, and two vertices of column 1 at
rows given in closed form by n and t are recoloured 7 and 8.

For m = 1, with the canonical shift 2 <= t < n/2, the vertex circle is
cut into intervals I_1..I_r of length t, the last of length
1 <= n - (r-1)t <= t, and the classes are dealt to the intervals
(IntervalPartition).  Each class is coloured along the components it
induces, which (n, t) alone fix (_m1_walks): ids are adjacent when they
differ by 1, t or t+1 mod n, so inside an interval only consecutive ids
are, and two intervals of one class (never cyclically consecutive)
share an edge only when exactly one interval, never the short I_r, lies
between them cyclically.  They then share one edge, of difference t+1:
from the last vertex of the earlier to the first of the later, or from
n to t+1 across the wrap.  So the joined intervals are I_2 + I_4, a
cycle, when r = 4; I_{r-2} + I_r + I_2 when r = 1 (mod 3), r >= 7; and
I_{r-3} + I_{r-1} and I_{r-2} + I_r when r = 2 (mod 3).  Every other
interval is a path of its own.

Every constructed colouring is verified nice before being returned;
ConstructionFailedError signals a contract violation, never a
recoverable condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .colouring import Colouring, nice_witness
from .embedding import EmbeddedGraph
from .errors import ConstructionFailedError
from .torus import TorusParams, canonical_m1, generate, vertex_id

COLOUR_CLASSES = ((1, 2, 3), (4, 5, 6), (7, 8, 9))


def _line_index(size: int, k: int) -> int:
    """idx(size, k) of the module docstring: the class index of column k
    for size = m, the within-class index of row k for size = n."""
    if size % 3 == 1 and k == size:
        return 2
    return (k - 1) % 3 + 1


def base_colour(m: int, n: int, i: int, j: int) -> int:
    """Colour of cell (i,j) in base_colouring(m, n)."""
    return COLOUR_CLASSES[_line_index(m, i) - 1][_line_index(n, j) - 1]


def base_colouring(m: int, n: int) -> Colouring:
    """Column-class base colouring of the m x n grid; independent of t.
    Cell (i,j) has id (i-1)*n + j and colour base_colour(m, n, i, j)."""
    if m < 2 or n < 3:
        raise ValueError("base colouring needs m >= 2 and n >= 3")
    rows = [_line_index(n, j) - 1 for j in range(1, n + 1)]
    columns = [COLOUR_CLASSES[_line_index(m, i) - 1] for i in range(1, m + 1)]
    colours = [cls[k] for cls in columns for k in rows]  # in id order
    return Colouring(dict(enumerate(colours, 1)))


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
        bad_vertices=frozenset(product(cols, rows)),
    )


def _absent_colour(p: TorusParams, cls: int, i: int, j: int) -> int:
    """The colour of class cls absent from N((i,j)) under the base
    colouring, when only the next column carries cls (module docstring)."""
    n = p.n
    a = j - p.t if i == p.m else j
    idx = [_line_index(n, (r - 1) % n + 1) for r in (a, a - 1)]
    return COLOUR_CLASSES[cls - 1][6 - sum(idx) - 1]


def repairs(p: TorusParams) -> dict[int, int]:
    """The recolouring {vertex id: colour} that makes base_colouring(m, n)
    nice on T(m,n,t), m >= 2, without building the graph: empty when m or
    n is 0 (mod 3), else the residue case's cells (m = 2: see colour_m2)."""
    m, n, t = p.m, p.n, p.t
    if m < 2:
        raise ValueError("repairs needs m >= 2")
    if m % 3 == 0 or n % 3 == 0:
        return {}
    if m == 2:
        if t % 3:
            rows = (1, 3)
        elif n % 3 == 2:
            rows = (2, n - t - 1)
        else:
            rows = (2, n - 2 if t == n - 4 else n)
        cells = {(1, rows[0]): 7, (1, rows[1]): 8}
    elif m % 3 == 1 and n % 3 == 1:
        cells = {}
        for i, j in product(_bad_lines(m), _bad_lines(n)):
            third = 6 - _line_index(m, i) - _line_index(m, i + 1)
            cells[i + 1, j - 1] = _absent_colour(p, third, i + 1, j - 1)
    elif m % 3 == 1 and n % 3 == 2:
        cells = {(2, n): 9, (m, n): _absent_colour(p, 1, m, n)}
    elif m % 3 == 2 and n % 3 == 1:
        cells = {(2, n): 7, (m - 1, 2): 7, (2, n - 2): 9, (m - 1, n): 9}
    else:  # m % 3 == 2, n % 3 == 2
        cells = {(2, n): 9, (m - 1, 1): 9}
    return {vertex_id(p, i, j): colour for (i, j), colour in cells.items()}


def _require_nice(g: EmbeddedGraph, c: Colouring, p: TorusParams) -> Colouring:
    witness = nice_witness(g, c)
    if witness is not None:
        raise ConstructionFailedError((p.m, p.n, p.t), witness)
    return c


def _repaired(p: TorusParams) -> Colouring:
    """base_colouring with repairs(p) applied, verified nice on T(p)."""
    g = generate(p)
    return _require_nice(g, base_colouring(p.m, p.n).with_recoloured(repairs(p)), p)


def colour_m_ge3(p: TorusParams) -> Colouring:
    """Nice colouring of T(m,n,t) for m >= 3: the base colouring, with
    the residue-specific repair applied around the bad vertices."""
    if p.m < 3:
        raise ValueError("colour_m_ge3 needs m >= 3")
    return _repaired(p)


def colour_m2(p: TorusParams) -> Colouring:
    """Nice colouring of T(2,n,t): the base colouring, with two vertices
    of column 1 recoloured 7 and 8 unless n = 0 (mod 3).

    (1,j) sees rows j-1, j+1 of column 1 and j-1, j, j+t, j+t+1 of
    column 2; (2,j) sees rows j-1, j+1 of column 2 and j, j+1, j-t-1, j-t
    of column 1.  Adjacent rows differ in within-class index, so a vertex
    is not odd only in a bad row (rows j-1 and j+1 share an index) whose
    two row pairs in the other column carry the same two indices.  On
    simple T(2,n,t), 1 <= t <= n-3, that happens exactly at

        n = 1, t = 0 (mod 3): (1,1), (2,1), (1,n-1), (2,n-1)
        n = 2, t = 0 (mod 3): (1,1), (2,n)
        n = 2, t = 1 (mod 3): (2,1), (1,n)

    Recolouring non-adjacent u -> 7, w -> 8 keeps the colouring proper,
    makes each neighbour of u or w odd (7 or 8 occurs there once) and
    changes no other neighbourhood, so u and w must avoid those vertices
    and between them be adjacent to all of them (repairs(p) gives them):

        t != 0 (mod 3): (1,1), adjacent to (2,1) and (1,n), and (1,3)
        t = 0 (mod 3): (1,2), adjacent to (1,1), (2,1), (2,t+3), and (1,r)
            n = 2 (mod 3): r = n-t-1, adjacent to (2,n)
            n = 1 (mod 3), t = n-4: r = n-2, adjacent to (1,n-1); (2,t+3) = (2,n-1)
            otherwise: r = n, adjacent to (1,n-1) and (2,n-1)
    """
    if p.m != 2:
        raise ValueError("colour_m2 needs m = 2")
    return _repaired(p)


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


def _m1_walks(part: IntervalPartition):
    """Yield (class index, walk, is_cycle) for each component of each
    colour class, read off the intervals by the join lemma in the module
    docstring.  A path starts at its smaller endpoint; the r = 4 cycle
    starts at t+1 and steps up."""
    r = part.r
    # the joined intervals, as 1-based interval numbers in walk order
    joins = {0: [], 1: [(r - 2, r, 2)], 2: [(r - 3, r - 1), (r - 2, r)]}[r % 3]
    if r == 4:  # I_2 and I_4 join at both ends, closing a cycle
        joins = [(2, 4)]
    joined = {k for chain in joins for k in chain}
    for chain in joins + [(k,) for k in range(1, r + 1) if k not in joined]:
        walk = [v for k in chain for v in part.intervals[k - 1]]
        if walk[-1] < walk[0]:
            walk.reverse()
        yield part.interval_class[chain[0] - 1], walk, r == 4 and len(chain) == 2


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
    graph (see canonical_m1).  Each class is coloured by repeating it
    along the walks of _m1_walks; the r = 4 cycle gets the tail-closed
    cycle pattern.  The graph is built first, so a non-simple T(1,n,t)
    raises NotSimpleError, and otherwise only to verify the result.
    """
    p = TorusParams(1, n, t)
    g = generate(p)
    part = IntervalPartition.build(*canonical_m1(n, t))

    assignment: dict[int, int] = {}
    for class_idx, walk, is_cycle in _m1_walks(part):
        cls = COLOUR_CLASSES[class_idx - 1]
        if is_cycle:
            pattern = _cycle_pattern(len(walk))
        else:
            pattern = [k % 3 + 1 for k in range(len(walk))]
        for v, idx in zip(walk, pattern):
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
