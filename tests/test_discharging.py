"""Discharging engine: initial charges, blocks, R1-R4, conservation."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oddtorus.discharge import (
    R1_AMOUNT,
    R2_AMOUNT,
    R2_EXCEPTION_AMOUNT,
    R3_AMOUNT,
    Block,
    ChargeLedger,
    Transfer,
    apply_rules,
    audit,
    blocks,
    initial_charges,
    rule_transfers,
)
from oddtorus.embedding import Face, build_embedded_graph, trace_faces
from oddtorus.errors import (
    DegreeTooSmallError,
    DisconnectedGraphError,
    GraphMismatchError,
    PhaseError,
)
from oddtorus.torus import TorusParams, generate, is_simple

from conftest import (
    adjacencies,
    cycle_graph,
    embedding_from_points,
    random_connected_embedding,
    scrambled_torus,
)


def star_fixture(ring_degrees: list[int]):
    """Centre 1 with ring 2..d+1 in rotation order; pendants pad each
    ring vertex up to its requested degree."""
    rotations = {1: list(range(2, len(ring_degrees) + 2))}
    next_id = len(ring_degrees) + 2
    for ring_v, want in enumerate(ring_degrees, start=2):
        pendants = list(range(next_id, next_id + want - 1))
        next_id += want - 1
        rotations[ring_v] = [1] + pendants
        for p in pendants:
            rotations[p] = [ring_v]
    return build_embedded_graph(rotations)


def reference_rule_transfers(g, faces) -> list[Transfer]:
    """R1-R4 transfers with R3 reading the face across each edge from a
    map of every directed edge to its face (the oracle for rule_transfers)."""
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


def assert_transfers_like_reference(g) -> list[Transfer]:
    """rule_transfers equals the oracle item by item, amounts as Fractions."""
    faces = tuple(trace_faces(g))
    got = rule_transfers(g, faces)
    assert got == reference_rule_transfers(g, faces)
    assert all(type(t.amount) is Fraction for t in got)
    return got


@st.composite
def connected_rotation_systems(draw):
    """Hypothesis strategy: a connected simple graph on 1..12 vertices with
    every rotation an arbitrary permutation of the neighbours.  Each
    component of the drawn graph is joined to vertex 1 by an edge from its
    least vertex."""
    adj = draw(adjacencies(12))
    seen: set[int] = set()
    for root in adj:  # 1, 2, ..., n
        if root in seen:
            continue
        if root != 1:
            adj[1].append(root)
            adj[root].append(1)
        stack = [root]
        seen.add(root)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return build_embedded_graph({v: draw(st.permutations(ws)) for v, ws in adj.items()})


def assert_audit_matches_definitions(before: ChargeLedger, after: ChargeLedger) -> None:
    """Totals and sign lists equal their plain Fraction definitions."""
    g = after.graph
    naive = []
    for ledger in (before, after):
        charges = [*ledger.vertex_charge.values(), *ledger.face_charge.values()]
        assert all(type(q) is Fraction for q in charges)
        naive.append(
            sum(ledger.vertex_charge.values(), Fraction(0))
            + sum(ledger.face_charge.values(), Fraction(0))
        )
        assert type(ledger.total) is Fraction and ledger.total == naive[-1]
    report = audit(before, after)
    assert (report.total_before, report.total_after) == tuple(naive)
    assert report.conserved == (naive[0] == naive[1])
    assert report.negative_faces == tuple(
        i for i, q in sorted(after.face_charge.items()) if q < 0
    )
    assert report.negative_six_plus_vertices == tuple(
        v for v, q in sorted(after.vertex_charge.items()) if g.degree(v) >= 6 and q < 0
    )
    assert report.nonpositive_five_vertices == tuple(
        v for v, q in sorted(after.vertex_charge.items()) if g.degree(v) == 5 and q <= 0
    )


# Denominators mix small values, powers of two and large primes
# (2^31 - 1, 2^61 - 1, 2^127 - 1), so that sums need many distinct ones.
DENOMINATORS = st.one_of(
    st.integers(1, 30),
    st.sampled_from([2**10, 2**64, 2**31 - 1, 2**61 - 1, 2**127 - 1, 10**9 + 7]),
)
NUMERATORS = st.one_of(
    st.just(0), st.integers(-50, 50), st.integers(-(10**40), 10**40),
    st.sampled_from([10**30 + 1, -(10**31) - 7]),
)
CHARGES = st.builds(Fraction, NUMERATORS, DENOMINATORS)
SCRAMBLED = scrambled_torus(8, 8, 3, 16, seed=0)
SCRAMBLED_FACES = tuple(trace_faces(SCRAMBLED))


class TestInitialCharges:
    def test_k4(self, k4_planar):
        led = initial_charges(k4_planar)
        assert set(led.vertex_charge.values()) == {Fraction(-3)}
        assert set(led.face_charge.values()) == {Fraction(0)}
        assert led.total == -12  # 6 * (6 - 4 - 4)

    def test_c5_on_sphere(self, c5):
        led = initial_charges(c5)
        assert set(led.vertex_charge.values()) == {Fraction(-4)}
        assert set(led.face_charge.values()) == {Fraction(4)}
        assert led.total == -12

    def test_torus_all_zero(self):
        led = initial_charges(generate(TorusParams(4, 6, 4)))
        assert set(led.vertex_charge.values()) == {Fraction(0)}
        assert set(led.face_charge.values()) == {Fraction(0)}

    def test_disconnected_rejected(self):
        g = build_embedded_graph({1: [2], 2: [1], 3: [4], 4: [3]})
        with pytest.raises(DisconnectedGraphError):
            initial_charges(g)

    def test_one_fraction_per_charge_value(self):
        led = initial_charges(SCRAMBLED)
        charges = [*led.vertex_charge.values(), *led.face_charge.values()]
        assert all(type(q) is Fraction and q.denominator == 1 for q in charges)
        assert len({id(q) for q in charges}) == len(set(charges)) > 1


class TestBlocks:
    def test_example_pattern(self):
        # ring degrees (5,6,5,6,5,5,6,6) around an 8-vertex
        g = star_fixture([5, 6, 5, 6, 5, 5, 6, 6])
        found = blocks(g, 1)
        assert sorted(b.size for b in found) == [1, 1, 2]

    def test_no_degree_five_neighbours(self):
        g = star_fixture([6] * 7)
        assert blocks(g, 1) == []

    def test_all_neighbours_degree_five(self):
        g = star_fixture([5] * 7)
        found = blocks(g, 1)
        assert len(found) == 1
        assert found[0].size == 7
        assert set(found[0].members) == set(range(2, 9))

    def test_degree_too_small(self):
        g = star_fixture([5] * 6)
        with pytest.raises(DegreeTooSmallError):
            blocks(g, 1)


class TestRuleR4:
    def test_block_shares(self):
        g = star_fixture([5, 6, 5, 6, 5, 5, 6, 6])
        received: dict[int, Fraction] = {}
        for tr in rule_transfers(g, tuple(trace_faces(g))):
            if tr.rule == "R4" and tr.sender == ("vertex", 1):
                received[tr.receiver] = received.get(tr.receiver, 0) + tr.amount
        # charge 2 split over blocks {2}, {4}, {6,7}
        assert received == {
            2: Fraction(2, 3),
            4: Fraction(2, 3),
            6: Fraction(1, 3),
            7: Fraction(1, 3),
        }

    def test_payout_sums_to_charge(self):
        for degrees in ([5] * 7, [5, 6, 5, 6, 5, 5, 6, 6], [5, 5, 5, 6, 6, 6, 6, 5, 5]):
            g = star_fixture(list(degrees))
            total = sum(
                (tr.amount for tr in rule_transfers(g, tuple(trace_faces(g)))
                 if tr.sender == ("vertex", 1)),
                Fraction(0),
            )
            assert total == g.degree(1) - 6


class TestRuleR2:
    def square_fixture(self, deg_a, deg_b, deg_c, deg_d):
        # unit square with pendants fanned outwards to pin the degrees
        points = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (1.0, 0.0), 4: (0.0, 0.0)}
        edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
        next_id = 5
        fans = {
            1: (-1.0, 2.0), 2: (2.0, 2.0), 3: (2.0, -1.0), 4: (-1.0, -1.0),
        }
        for corner, want in zip((1, 2, 3, 4), (deg_a, deg_b, deg_c, deg_d)):
            fx, fy = fans[corner]
            cx, cy = points[corner]
            for k in range(want - 2):
                points[next_id] = (cx + (fx - cx) * (1 + 0.2 * k), cy + (fy - cy) * (1 + 0.3 * k))
                edges.append((corner, next_id))
                next_id += 1
        return embedding_from_points(points, edges)

    def find_square_face(self, g):
        for i, f in enumerate(trace_faces(g)):
            if f.size == 4 and set(f.boundary_vertices) == {1, 2, 3, 4}:
                return i
        raise AssertionError("square face not traced")

    def r2_payments(self, g):
        fi = self.find_square_face(g)
        return {
            tr.receiver: tr.amount
            for tr in rule_transfers(g, tuple(trace_faces(g)))
            if tr.rule == "R2" and tr.sender == ("face", fi)
        }

    def test_adjacent_five_pair_gets_three_quarters(self):
        g = self.square_fixture(5, 5, 6, 6)
        assert self.r2_payments(g) == {1: Fraction(3, 4), 2: Fraction(3, 4)}

    def test_opposite_fives_get_one(self):
        g = self.square_fixture(5, 6, 5, 6)
        assert self.r2_payments(g) == {1: Fraction(1), 3: Fraction(1)}

    def test_single_five_gets_one(self):
        g = self.square_fixture(5, 6, 6, 6)
        assert self.r2_payments(g) == {1: Fraction(1)}

    def test_low_degree_breaks_exceptional_pattern(self):
        # (5,5,6,2): not "two adjacent 5s then two adjacent 6+"
        g = self.square_fixture(5, 5, 6, 2)
        assert self.r2_payments(g) == {1: Fraction(1), 2: Fraction(1)}


class TestRuleR3:
    def fixture(self):
        # square 1-2-3-4 with a triangle 1-2-5 hanging below edge (1,2);
        # 1 and 2 have degree 6, w = 5 has degree 5
        points = {
            1: (0.0, 0.0), 2: (2.0, 0.0), 3: (2.0, 2.0), 4: (0.0, 2.0),
            5: (1.0, -1.0),
        }
        edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5)]
        next_id = 6
        for corner, want, (fx, fy) in [(1, 6, (-2.0, -0.5)), (2, 6, (4.0, -0.5)), (5, 5, (1.0, -3.0))]:
            cx, cy = points[corner]
            have = sum(1 for e in edges if corner in e)
            for k in range(want - have):
                points[next_id] = (cx + (fx - cx) * (1 + 0.25 * k), cy + (fy - cy) * (1 + 0.35 * k) - 0.01 * k)
                edges.append((corner, next_id))
                next_id += 1
        return embedding_from_points(points, edges)

    def test_half_charge_to_triangle_apex(self):
        g = self.fixture()
        faces = tuple(trace_faces(g))
        square = next(
            i for i, f in enumerate(faces)
            if f.size == 4 and set(f.boundary_vertices) == {1, 2, 3, 4}
        )
        r3 = [tr for tr in rule_transfers(g, faces) if tr.rule == "R3"]
        assert r3 == [type(r3[0])("R3", ("face", square), 5, Fraction(1, 2))]


class TestMatchesReference:
    """rule_transfers reads R3's triangle off the rotations; the oracle
    looks the face across each edge up in a map of all directed edges."""

    def test_scrambled_tori(self):
        r3 = 0
        for args in [(8, 8, 3, 16), (10, 10, 3, 60), (9, 13, 5, 200)]:
            for seed in range(6):
                got = assert_transfers_like_reference(scrambled_torus(*args, seed=seed))
                r3 += sum(t.rule == "R3" for t in got)
        assert r3 > 100

    def test_simple_tori(self):
        for m in range(1, 7):
            for n in range(1, 11):
                for t in range(n):
                    p = TorusParams(m, n, t)
                    if is_simple(p):
                        assert assert_transfers_like_reference(generate(p)) == []

    def test_fixtures(self):
        assert_transfers_like_reference(TestRuleR3().fixture())
        assert_transfers_like_reference(star_fixture([5, 6, 5, 6, 5, 5, 6, 6]))

    @given(connected_rotation_systems())
    def test_random_rotation_systems(self, g):
        assert g.is_connected()
        assert_transfers_like_reference(g)

    @given(
        st.integers(3, 9), st.integers(7, 12), st.integers(0, 11),
        st.integers(0, 150), st.integers(0, 2**32 - 1),
    )
    def test_random_scrambled_tori(self, m, n, t, ops, seed):
        # random rotations on few vertices seldom make R3 fire; these do
        assume(t < n and is_simple(TorusParams(m, n, t)))
        assert_transfers_like_reference(scrambled_torus(m, n, t, ops, seed))


class TestSlottedValues:
    def test_frozen_slotted_dataclasses(self):
        cases = [
            (Face(((1, 2), (2, 3), (3, 1))), "Face(walk=((1, 2), (2, 3), (3, 1)))"),
            (
                Transfer("R3", ("face", 0), 5, R3_AMOUNT),
                "Transfer(rule='R3', sender=('face', 0), receiver=5, amount=Fraction(1, 2))",
            ),
            (Block(1, (2, 3)), "Block(centre=1, members=(2, 3))"),
        ]
        for value, text in cases:
            twin = type(value)(*(getattr(value, f.name) for f in fields(value)))
            assert not hasattr(value, "__dict__")
            assert value == twin and hash(value) == hash(twin) and repr(value) == text
            with pytest.raises(FrozenInstanceError):
                setattr(value, fields(value)[0].name, None)


class TestApplyRules:
    def test_torus_nothing_moves(self):
        for m, n, t in [(4, 6, 4), (5, 7, 5), (1, 13, 4)]:
            g = generate(TorusParams(m, n, t))
            before = initial_charges(g)
            after = apply_rules(g, before)
            assert after.vertex_charge == before.vertex_charge
            assert after.face_charge == before.face_charge

    def test_phase_error_on_double_apply(self, k4_planar):
        after = apply_rules(k4_planar, initial_charges(k4_planar))
        with pytest.raises(PhaseError):
            apply_rules(k4_planar, after)

    def test_k4_rules_never_fire(self, k4_planar):
        before = initial_charges(k4_planar)
        after = apply_rules(k4_planar, before)
        assert after.vertex_charge == before.vertex_charge
        assert before.total == after.total == -12


class TestAudit:
    def test_torus_report(self):
        g = generate(TorusParams(5, 7, 5))
        before = initial_charges(g)
        report = audit(before, apply_rules(g, before))
        assert report.conserved
        assert report.total_before == report.total_after == 0
        assert not report.negative_faces
        assert not report.negative_six_plus_vertices

    def test_k4_negative_vertices_reported_via_five_rule(self, k4_planar):
        # degree-3 vertices stay at -3; they are below the 5/6 thresholds
        before = initial_charges(k4_planar)
        report = audit(before, apply_rules(k4_planar, before))
        assert report.conserved
        assert report.total_before == -12
        assert not report.nonpositive_five_vertices

    def test_graph_mismatch(self, k4_planar, c5):
        a = initial_charges(k4_planar)
        b = apply_rules(c5, initial_charges(c5))
        with pytest.raises(GraphMismatchError):
            audit(a, b)

    def test_five_vertex_sink_reported(self):
        g = star_fixture([5] * 7)
        before = initial_charges(g)
        report = audit(before, apply_rules(g, before))
        assert report.conserved
        # pendants have degree 1, ring vertices 5: all start negative and
        # only the ring receives R4 charge
        assert all(g.degree(v) == 5 for v in report.nonpositive_five_vertices)


class TestConservationProperty:
    def test_random_embeddings(self):
        rng = random.Random(909)
        for _ in range(100):
            g = random_connected_embedding(rng, rng.randint(4, 14))
            before = initial_charges(g)
            after = apply_rules(g, before)
            expected = 6 * (g.edge_count - g.vertex_count - len(before.faces))
            assert before.total == after.total == expected

    def test_per_face_payout_bound(self):
        # a face never pays more than 1/2 per 6+-appearance plus 11/10
        # per 5-appearance (R3 charges attributed to the 6+ endpoints)
        rng = random.Random(910)
        cases = [random_connected_embedding(rng, rng.randint(4, 14)) for _ in range(40)]
        cases.append(star_fixture([5, 6, 5, 6, 5, 5, 6, 6]))
        for g in cases:
            faces = tuple(trace_faces(g))
            sent: dict[int, Fraction] = {}
            for tr in rule_transfers(g, faces):
                if tr.sender[0] == "face":
                    sent[tr.sender[1]] = sent.get(tr.sender[1], Fraction(0)) + tr.amount
            for fi, amount in sent.items():
                fives = sum(1 for u in faces[fi].boundary_vertices if g.degree(u) == 5)
                sixes = sum(1 for u in faces[fi].boundary_vertices if g.degree(u) >= 6)
                assert amount <= Fraction(11, 10) * fives + Fraction(1, 2) * sixes

    def test_transfer_amounts_are_exact_rationals(self):
        g = star_fixture([5, 6, 5, 6, 5, 5, 6, 6])
        for tr in rule_transfers(g, tuple(trace_faces(g))):
            assert isinstance(tr.amount, Fraction)

    def test_audit_matches_definitions(self):
        rng = random.Random(909)
        cases = [random_connected_embedding(rng, rng.randint(4, 14)) for _ in range(100)]
        rng = random.Random(910)
        cases += [random_connected_embedding(rng, rng.randint(4, 14)) for _ in range(40)]
        cases += [star_fixture([5, 6, 5, 6, 5, 5, 6, 6]), SCRAMBLED]
        for g in cases:
            before = initial_charges(g)
            assert_audit_matches_definitions(before, apply_rules(g, before))

    @given(
        st.lists(CHARGES, min_size=1, max_size=40),
        st.lists(CHARGES, min_size=1, max_size=40),
        st.lists(CHARGES, min_size=1, max_size=40),
    )
    def test_exact_on_arbitrary_charges(self, vertex_values, before_faces, after_faces):
        # Charges are cycled over the vertices and faces of a graph whose
        # degrees include 5, 6 and 7+, so every sign list is exercised.
        def ledger(vertex_values, face_values, phase):
            return ChargeLedger(
                graph=SCRAMBLED,
                faces=SCRAMBLED_FACES,
                vertex_charge={
                    v: vertex_values[v % len(vertex_values)] for v in SCRAMBLED.vertices()
                },
                face_charge={
                    i: face_values[i % len(face_values)] for i in range(len(SCRAMBLED_FACES))
                },
                phase=phase,
            )

        before = ledger(vertex_values, before_faces, "initial")
        moved = ledger(vertex_values[::-1], after_faces, "discharged")
        assert_audit_matches_definitions(before, moved)
        unmoved = ledger(vertex_values, before_faces, "discharged")
        assert_audit_matches_definitions(before, unmoved)

    def test_torus_sweep_identity(self):
        zero = Fraction(0)
        for m in range(1, 11):
            for n in range(3, 13):
                for t in range(n):
                    p = TorusParams(m, n, t)
                    if not is_simple(p):
                        continue
                    g = generate(p)
                    before = initial_charges(g)
                    after = apply_rules(g, before)
                    assert set(before.vertex_charge.values()) == {zero}
                    assert set(before.face_charge.values()) == {zero}
                    assert set(after.vertex_charge.values()) == {zero}
                    assert set(after.face_charge.values()) == {zero}
