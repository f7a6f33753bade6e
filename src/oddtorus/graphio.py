"""Text file formats for embedded graphs and colourings.

Graph files ("og" format, version 1):

    og 1
    v <vertex_count>
    r <v> <n1> <n2> ... <nd>

with one r-line per vertex giving its rotation in cyclic order; an
isolated vertex has a bare "r <v>" line.  Writers normalize to single
spaces, LF line endings, and r-lines sorted by vertex id, so
write(parse(text)) is the identity on normalized files.

Colouring files have one "<v> <colour>" line per vertex, written in
vertex order.
"""

from __future__ import annotations

from .colouring import Colouring
from .embedding import EmbeddedGraph, build_embedded_graph
from .errors import GraphError, GraphFileError

MAGIC = "og 1"


def write_graph(g: EmbeddedGraph) -> str:
    lines = [MAGIC, f"v {g.vertex_count}"]
    for v in g.vertices():
        lines.append(" ".join(["r", str(v), *map(str, g.rotation(v))]))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> EmbeddedGraph:
    """Parse the og format; any invariant violation is a parse error.

    Raises:
        GraphFileError: malformed line, duplicate or missing vertex,
            or a rotation-system violation, with the offending line.
    """
    lines = text.splitlines()
    meaningful = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not meaningful or meaningful[0][1].split() != MAGIC.split():
        raise GraphFileError(f"expected header {MAGIC!r}", line=1)
    if len(meaningful) < 2:
        raise GraphFileError("missing vertex-count line", line=meaningful[0][0])
    count_no, count_line = meaningful[1]
    parts = count_line.split()
    if len(parts) != 2 or parts[0] != "v" or not parts[1].isdigit():
        raise GraphFileError("expected 'v <vertex_count>'", line=count_no)
    n = int(parts[1])
    if n < 1:
        raise GraphFileError("vertex count must be positive", line=count_no)

    rotations: dict[int, tuple[int, ...]] = {}
    line_of: dict[int, int] = {}
    for no, ln in meaningful[2:]:
        parts = ln.split()
        if parts[0] != "r":
            raise GraphFileError(f"expected an 'r' line, got {parts[0]!r}", line=no)
        try:
            ids = [int(x) for x in parts[1:]]
        except ValueError:
            raise GraphFileError("non-integer vertex id", line=no) from None
        if not ids:
            raise GraphFileError("'r' line missing its vertex id", line=no)
        v, nbrs = ids[0], ids[1:]
        if not 1 <= v <= n:
            raise GraphFileError(f"vertex id {v} out of range 1..{n}", line=no)
        if v in rotations:
            raise GraphFileError(f"duplicate rotation for vertex {v}", line=no)
        rotations[v] = tuple(nbrs)
        line_of[v] = no

    if len(rotations) < n:
        # Keys are distinct ids in 1..n, so a gap is found within
        # len(rotations) + 1 steps, however large the declared count.
        missing = next(v for v in range(1, n + 1) if v not in rotations)
        raise GraphFileError(f"no rotation line for vertex {missing}")
    try:
        return build_embedded_graph(rotations)
    except GraphError as exc:
        raise GraphFileError(str(exc), line=line_of[exc.vertex]) from exc


def write_colouring(c: Colouring) -> str:
    lines = [f"{v} {c[v]}" for v in sorted(c.assignment)]
    return "\n".join(lines) + "\n"


def parse_colouring(text: str, graph: EmbeddedGraph | None = None) -> Colouring:
    """Parse a colouring file; with a graph, totality is enforced."""
    assignment: dict[int, int] = {}
    for i, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFileError("expected '<vertex> <colour>'", line=i)
        try:
            v, colour = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFileError("non-integer entry", line=i) from None
        if colour < 1:
            raise GraphFileError(f"colour must be positive, got {colour}", line=i)
        if v in assignment:
            raise GraphFileError(f"duplicate colour for vertex {v}", line=i)
        assignment[v] = colour
    if graph is not None:
        missing = [v for v in graph.vertices() if v not in assignment]
        if missing:
            raise GraphFileError(f"vertex {missing[0]} has no colour")
        extra = [v for v in assignment if v not in graph.vertices()]
        if extra:
            raise GraphFileError(f"colour given for unknown vertex {extra[0]}")
    return Colouring(assignment)
