"""Charge assignment and the discharging rules with exact rationals.

Every vertex starts with charge d(v) - 6 and every face with
2 d(f) - 6, so the total is 6(E - V - F): zero exactly on the torus.
Four rules then move charge, all evaluated simultaneously against the
initial configuration (no rule reads updated charges):

  R1  every 5+-face sends 11/10 to each incident 5-vertex;
  R2  every 4-face sends 1 to each incident 5-vertex, except that a
      boundary reading (5, 5, 6+, 6+) in cyclic order sends 3/4 to each
      of the two 5-vertices;
  R3  when two 6+-vertices u, v are consecutive on a 4+-face f and the
      face on the other side of the edge uv is a triangle uvw with w a
      5-vertex, f sends 1/2 to w;
  R4  every 7+-vertex with a 5-neighbour splits its charge d(v) - 6
      evenly between its blocks (maximal runs of 5-neighbours,
      consecutive in rotation order), then evenly within each block.

Multiple appearances of a vertex on one boundary walk count as separate
incidences for R1-R3.  All amounts are Fractions; the only tolerated
equality is exact equality.

Exactness costs no Fraction addition per charge: ledger totals sum integer
numerators grouped by denominator, the audit reads signs from numerators
(denominators are positive), and equal integral charges share one Fraction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain

from .embedding import EmbeddedGraph, Face, trace_faces
from .errors import (
    DegreeTooSmallError,
    DisconnectedGraphError,
    GraphMismatchError,
    PhaseError,
)

R1_AMOUNT = Fraction(11, 10)
R2_AMOUNT = Fraction(1)
R2_EXCEPTION_AMOUNT = Fraction(3, 4)
R3_AMOUNT = Fraction(1, 2)


@dataclass(frozen=True)
class Block:
    """Maximal run of degree-5 neighbours around a 7+-vertex."""

    centre: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Transfer:
    """One charge movement: rule name, sender, receiving vertex, amount.

    Senders are ("face", face_index) for R1-R3 and ("vertex", v) for R4.
    """

    rule: str
    sender: tuple[str, int]
    receiver: int
    amount: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    """Per-vertex and per-face charges in one phase.

    Faces are identified by their index in the traced face list, which
    the ledger carries along.
    """

    graph: EmbeddedGraph
    faces: tuple[Face, ...]
    vertex_charge: dict[int, Fraction]
    face_charge: dict[int, Fraction]
    phase: str

    @property
    def total(self) -> Fraction:
        numerators: defaultdict[int, int] = defaultdict(int)
        for q in chain(self.vertex_charge.values(), self.face_charge.values()):
            numerators[q.denominator] += q.numerator
        return sum(map(Fraction, numerators.values(), numerators), Fraction(0))


def initial_charges(g: EmbeddedGraph) -> ChargeLedger:
    """Phase-initial ledger: d(v) - 6 per vertex, 2 d(f) - 6 per face."""
    if not g.is_connected():
        raise DisconnectedGraphError("charge assignment requires a connected graph")
    faces = tuple(trace_faces(g))
    shared = cache(Fraction)  # one Fraction per distinct integral charge
    return ChargeLedger(
        graph=g,
        faces=faces,
        vertex_charge={v: shared(g.degree(v) - 6) for v in g.vertices()},
        face_charge={i: shared(2 * f.size - 6) for i, f in enumerate(faces)},
        phase="initial",
    )


def blocks(g: EmbeddedGraph, v: int) -> list[Block]:
    """Maximal cyclic runs of degree-5 neighbours around v (degree >= 7).

    A vertex all of whose neighbours have degree 5 has a single block
    containing the whole rotation.
    """
    if g.degree(v) < 7:
        raise DegreeTooSmallError(f"vertex {v} has degree {g.degree(v)} < 7")
    rot = g.rotation(v)
    flags = [g.degree(w) == 5 for w in rot]
    if not any(flags):
        return []
    if all(flags):
        return [Block(v, rot)]
    d = len(rot)
    start = flags.index(False)
    found: list[Block] = []
    run: list[int] = []
    for k in range(1, d + 1):
        i = (start + k) % d
        if flags[i]:
            run.append(rot[i])
        elif run:
            found.append(Block(v, tuple(run)))
            run = []
    return found


def rule_transfers(g: EmbeddedGraph, faces: tuple[Face, ...]) -> list[Transfer]:
    """All R1-R4 transfers for the embedding, in rule order."""
    deg = [0] + [g.degree(v) for v in range(1, g.vertex_count + 1)]
    face_of: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(faces):
        for e in f.walk:
            face_of[e] = fi

    transfers: list[Transfer] = []
    for fi, f in enumerate(faces):
        if f.size >= 5:
            for u in f.boundary_vertices:
                if deg[u] == 5:
                    transfers.append(Transfer("R1", ("face", fi), u, R1_AMOUNT))
        elif f.size == 4:
            degs = [deg[u] for u in f.boundary_vertices]
            fives = [i for i, d in enumerate(degs) if d == 5]
            exceptional = (
                len(fives) == 2
                and (fives[1] - fives[0]) in (1, 3)
                and all(degs[i] >= 6 for i in range(4) if i not in fives)
            )
            amount = R2_EXCEPTION_AMOUNT if exceptional else R2_AMOUNT
            for i in fives:
                transfers.append(
                    Transfer("R2", ("face", fi), f.boundary_vertices[i], amount)
                )
        if f.size >= 4:
            for u, v in f.walk:
                if deg[u] < 6 or deg[v] < 6:
                    continue
                other = faces[face_of[(v, u)]]
                if other.size != 3:
                    continue
                w = next(x for x in other.boundary_vertices if x not in (u, v))
                if deg[w] == 5:
                    transfers.append(Transfer("R3", ("face", fi), w, R3_AMOUNT))

    for v in g.vertices():
        if deg[v] < 7:
            continue
        vertex_blocks = blocks(g, v)
        if not vertex_blocks:
            continue
        per_block = Fraction(deg[v] - 6, len(vertex_blocks))
        for block in vertex_blocks:
            share = per_block / block.size
            for member in block.members:
                transfers.append(Transfer("R4", ("vertex", v), member, share))
    return transfers


def apply_rules(g: EmbeddedGraph, ledger: ChargeLedger) -> ChargeLedger:
    """Apply R1-R4 simultaneously to an initial ledger."""
    if ledger.phase != "initial":
        raise PhaseError(f"apply_rules needs an initial ledger, got {ledger.phase!r}")
    if ledger.graph != g:
        raise GraphMismatchError("ledger belongs to a different graph")
    vertex_charge = dict(ledger.vertex_charge)
    face_charge = dict(ledger.face_charge)
    for tr in rule_transfers(g, ledger.faces):
        kind, idx = tr.sender
        if kind == "face":
            face_charge[idx] -= tr.amount
        else:
            vertex_charge[idx] -= tr.amount
        vertex_charge[tr.receiver] += tr.amount
    return ChargeLedger(
        graph=g,
        faces=ledger.faces,
        vertex_charge=vertex_charge,
        face_charge=face_charge,
        phase="discharged",
    )


@dataclass(frozen=True)
class AuditReport:
    """Facts about a before/after ledger pair.

    States what holds for this input; deliberately does not assert the
    non-negativity structure, which holds only under hypotheses the
    input need not satisfy.
    """

    total_before: Fraction
    total_after: Fraction
    conserved: bool
    negative_faces: tuple[int, ...]
    negative_six_plus_vertices: tuple[int, ...]
    nonpositive_five_vertices: tuple[int, ...]


def audit(ledger_before: ChargeLedger, ledger_after: ChargeLedger) -> AuditReport:
    """Conservation and sign structure of a discharging run."""
    if ledger_before.graph != ledger_after.graph:
        raise GraphMismatchError("ledgers belong to different graphs")
    if (ledger_before.phase, ledger_after.phase) != ("initial", "discharged"):
        raise PhaseError("audit expects an (initial, discharged) ledger pair")
    g = ledger_after.graph
    before, after = ledger_before.total, ledger_after.total
    return AuditReport(
        total_before=before,
        total_after=after,
        conserved=before == after,
        negative_faces=tuple(
            i for i, q in sorted(ledger_after.face_charge.items()) if q.numerator < 0
        ),
        negative_six_plus_vertices=tuple(
            v for v, q in sorted(ledger_after.vertex_charge.items())
            if g.degree(v) >= 6 and q.numerator < 0
        ),
        nonpositive_five_vertices=tuple(
            v for v, q in sorted(ledger_after.vertex_charge.items())
            if g.degree(v) == 5 and q.numerator <= 0
        ),
    )
