"""Embedding core: validation, face tracing, Euler characteristic."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddtorus.embedding import (
    EmbeddedGraph,
    Face,
    build_embedded_graph,
    euler_characteristic,
    is_6regular_triangulation,
    trace_faces,
)
from oddtorus.errors import (
    AsymmetricRotationError,
    DisconnectedGraphError,
    RepeatedNeighbourError,
    SelfLoopError,
)
from oddtorus.torus import TorusParams, generate, is_simple

from conftest import adjacencies, cycle_graph, path_graph, random_connected_embedding


def reference_trace_faces(g: EmbeddedGraph) -> list[Face]:
    """The straightforward tracer: sort every directed edge, start a walk
    at each one not yet visited.  Oracle for trace_faces."""
    next_after: list[dict[int, int]] = [{}]
    for v in g.vertices():
        rot = g.rotation(v)
        d = len(rot)
        next_after.append({rot[i]: rot[(i + 1) % d] for i in range(d)})

    visited: set[tuple[int, int]] = set()
    faces: list[Face] = []
    for start in sorted(g.directed_edges()):
        if start in visited:
            continue
        walk = []
        edge = start
        while edge not in visited:
            visited.add(edge)
            walk.append(edge)
            u, v = edge
            edge = (v, next_after[v][u])
        if edge != start:
            raise AssertionError("face tracing did not close; invalid rotation system")
        faces.append(Face(tuple(walk)))
    return faces


def assert_traced_like_reference(g: EmbeddedGraph) -> None:
    assert [f.walk for f in trace_faces(g)] == [f.walk for f in reference_trace_faces(g)]


@st.composite
def rotation_systems(draw):
    """Hypothesis strategy: a simple graph on 1..10 vertices, possibly
    disconnected or with isolated vertices, with every rotation an
    arbitrary permutation of the neighbours."""
    adj = draw(adjacencies(10))
    return build_embedded_graph({v: draw(st.permutations(ws)) for v, ws in adj.items()})


class TestBuild:
    def test_k4_all_ascending_rotations_are_valid(self):
        g = build_embedded_graph(
            {1: [2, 3, 4], 2: [1, 3, 4], 3: [1, 2, 4], 4: [1, 2, 3]}
        )
        assert g.vertex_count == 4
        assert g.edge_count == 6

    def test_asymmetric_rotation_rejected(self):
        with pytest.raises(AsymmetricRotationError):
            build_embedded_graph({1: [2], 2: []})

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_embedded_graph({1: [1, 2], 2: [1]})

    def test_repeated_neighbour_rejected(self):
        with pytest.raises(RepeatedNeighbourError):
            build_embedded_graph({1: [2, 2], 2: [1, 1]})

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            build_embedded_graph({1: [3], 2: []})

    def test_isolated_vertices_permitted(self):
        g = build_embedded_graph({1: [2], 2: [1], 3: []})
        assert g.degree(3) == 0

    def test_torus_generation_counts(self):
        g = generate(TorusParams(4, 6, 4))
        assert g.vertex_count == 24
        assert g.edge_count == 72  # 6-regular => E = 3V


class TestTraceFaces:
    def test_k4_planar_is_tetrahedron(self, k4_planar):
        faces = trace_faces(k4_planar)
        assert len(faces) == 4
        assert [f.size for f in faces] == [3, 3, 3, 3]

    def test_c5_two_pentagons(self, c5):
        faces = trace_faces(c5)
        assert [f.size for f in faces] == [5, 5]

    def test_torus_triangulation_faces(self):
        # V - E + F = 0 with V = 24, E = 72 forces F = 48
        faces = trace_faces(generate(TorusParams(4, 6, 4)))
        assert len(faces) == 48
        assert all(f.size == 3 for f in faces)

    def test_faces_partition_directed_edges(self, k4_planar):
        faces = trace_faces(k4_planar)
        seen = [e for f in faces for e in f.walk]
        assert sorted(seen) == sorted(k4_planar.directed_edges())
        assert len(set(seen)) == len(seen)

    def test_face_sizes_sum_to_twice_edges(self, k4_planar):
        assert sum(f.size for f in trace_faces(k4_planar)) == 2 * k4_planar.edge_count

    def test_unclosed_walk_raises(self):
        # Only reachable by bypassing build_embedded_graph: 2 lists 1 but
        # 3 does not list 1, so the walk from (1, 2) runs off at (1, 3).
        g = EmbeddedGraph(((), (2, 3), (1,), ()))
        with pytest.raises(AssertionError, match="did not close"):
            trace_faces(g)


class TestTraceFacesMatchesReference:
    def test_small_torus_family(self):
        for m in range(1, 7):
            for n in range(1, 11):
                for t in range(n):
                    p = TorusParams(m, n, t)
                    if is_simple(p):
                        assert_traced_like_reference(generate(p))

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_random_embeddings(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            assert_traced_like_reference(random_connected_embedding(rng, rng.randint(2, 16)))

    def test_walks_revisiting_vertices(self):
        # a tree has one face, which passes each vertex once per incident edge
        cases = [path_graph(k) for k in range(2, 8)]
        for k in range(1, 7):
            leaves = range(2, k + 2)
            cases.append(build_embedded_graph({1: list(leaves), **{v: [1] for v in leaves}}))
        cases += [
            build_embedded_graph({1: [2], 2: [1], 3: []}),
            build_embedded_graph({1: [], 2: [3, 4], 3: [2], 4: [2], 5: []}),
            build_embedded_graph({1: []}),
            build_embedded_graph({1: [2, 3, 4], 2: [1, 5], 3: [1], 4: [1], 5: [2]}),
        ]
        for g in cases:
            assert_traced_like_reference(g)

    @given(rotation_systems())
    def test_random_rotation_systems(self, g):
        assert_traced_like_reference(g)


class TestEulerCharacteristic:
    def test_k4_planar_sphere(self, k4_planar):
        assert euler_characteristic(k4_planar) == 2

    def test_torus_instances(self):
        assert euler_characteristic(generate(TorusParams(4, 6, 4))) == 0
        assert euler_characteristic(generate(TorusParams(1, 13, 4))) == 0

    def test_disconnected_rejected(self):
        g = build_embedded_graph({1: [2], 2: [1], 3: [4], 4: [3]})
        with pytest.raises(DisconnectedGraphError):
            euler_characteristic(g)

    def test_k4_ascending_rotation_is_toroidal(self):
        # The all-ascending rotation of K4 embeds it on the torus, not
        # the sphere: two faces, sizes {4, 8}.
        g = build_embedded_graph(
            {1: [2, 3, 4], 2: [1, 3, 4], 3: [1, 2, 4], 4: [1, 2, 3]}
        )
        assert euler_characteristic(g) == 0
        assert sorted(f.size for f in trace_faces(g)) == [4, 8]


class TestSixRegularTriangulation:
    def test_generated_instances(self):
        assert is_6regular_triangulation(generate(TorusParams(4, 6, 4)))
        assert is_6regular_triangulation(generate(TorusParams(2, 5, 2)))

    def test_k4_is_not(self, k4_planar):
        assert not is_6regular_triangulation(k4_planar)


class TestRandomEmbeddingInvariants:
    def test_degree_and_size_sums(self):
        rng = random.Random(101)
        for _ in range(50):
            g = random_connected_embedding(rng, rng.randint(2, 16))
            faces = trace_faces(g)
            assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count
            assert sum(f.size for f in faces) == 2 * g.edge_count
            seen = [e for f in faces for e in f.walk]
            assert sorted(seen) == sorted(g.directed_edges())

    def test_euler_characteristic_even_and_at_most_two(self):
        rng = random.Random(202)
        for _ in range(50):
            g = random_connected_embedding(rng, rng.randint(2, 16))
            chi = euler_characteristic(g)
            assert chi <= 2
            assert chi % 2 == 0

    def test_tracing_is_deterministic(self):
        rng = random.Random(303)
        g = random_connected_embedding(rng, 12)
        assert trace_faces(g) == trace_faces(g)

    def test_cycles_have_two_faces(self):
        for k in range(3, 9):
            faces = trace_faces(cycle_graph(k))
            assert [f.size for f in faces] == [k, k]
