"""Exception types shared across the package."""

from __future__ import annotations


class GraphError(Exception):
    """Base class for structurally invalid graph data.

    Attributes:
        vertex: the vertex whose rotation is at fault, or None.
    """

    def __init__(self, message: str, vertex: int | None = None):
        self.vertex = vertex
        super().__init__(message)


class NeighbourRangeError(GraphError, ValueError):
    """A rotation lists a neighbour id outside 1..n."""


class AsymmetricRotationError(GraphError):
    """u lists v in its rotation but v does not list u."""


class SelfLoopError(GraphError):
    """A vertex appears in its own rotation."""


class RepeatedNeighbourError(GraphError):
    """A neighbour occurs more than once in a rotation."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


class NotSimpleError(Exception):
    """T(m,n,t) parameters materialize a loop or parallel edge.

    Attributes:
        params: the offending (m, n, t) triple.
        witness: human-readable description of the violation found.
    """

    def __init__(self, params, witness: str):
        self.params = params
        self.witness = witness
        super().__init__(f"T{params} is not simple: {witness}")


class PartialColouringError(Exception):
    """Colouring does not assign a colour to every vertex."""


class ConstructionFailedError(Exception):
    """Constructive colouring violated its own contract.

    Carries the verifier witness.  Must not occur for simple parameters;
    a raise here indicates a bug, never a recoverable condition.
    """

    def __init__(self, params, witness: str):
        self.params = params
        self.witness = witness
        super().__init__(f"construction failed on T{params}: {witness}")


class NeighbourUncolouredError(Exception):
    """forbidden_colours called with an uncoloured neighbour in strict mode."""


class ResourceLimitError(Exception):
    """Search node budget or recursion depth exceeded (distinct from
    unsatisfiability)."""


class DegreeTooSmallError(Exception):
    """Block decomposition requested at a vertex of degree < 7."""


class PhaseError(Exception):
    """Charge ledger is in the wrong phase for the requested operation."""


class GraphMismatchError(Exception):
    """Two ledgers being audited do not belong to the same graph."""


class GraphFileError(Exception):
    """Malformed graph or colouring file.

    Attributes:
        line: 1-based line number of the offending line, or None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
