"""T(m,n,t) generation, simplicity, canonical m=1 parameters."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from oddtorus.embedding import (
    build_embedded_graph,
    euler_characteristic,
    is_6regular_triangulation,
    trace_faces,
)
from oddtorus.errors import NotSimpleError
from oddtorus.graphio import parse_graph, write_graph
from oddtorus.torus import (
    TorusParams,
    canonical_m1,
    generate,
    is_simple,
    simplicity_witness,
    vertex_coords,
    vertex_id,
)


def neighbour_slots(p: TorusParams, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """The six neighbours of (i,j) in rotation order, coordinates normalized.

    Order: east, north-east diagonal, north, west, south-west diagonal,
    south.  For i = m the east pair wraps to column 1 with shift t; for
    i = 1 the west pair wraps to column m.  The coordinate form of the
    rules, kept as the oracle for the flat-id generator.
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


def simple_slots(p: TorusParams):
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


def reference_generate(p: TorusParams):
    """The coordinate-tuple generator, validated by build_embedded_graph."""
    return build_embedded_graph(
        [tuple(vertex_id(p, si, sj) for si, sj in slots) for slots in simple_slots(p)]
    )


def assert_matches_reference(p: TorusParams) -> bool:
    """generate and simplicity_witness agree with the oracle on T(p);
    returns whether T(p) is simple."""
    try:
        expected = reference_generate(p)
    except NotSimpleError as exc:
        with pytest.raises(NotSimpleError) as got:
            generate(p)
        assert str(got.value) == str(exc), f"T{p}"
        assert got.value.witness == exc.witness == simplicity_witness(p)
        return False
    g = generate(p)
    assert simplicity_witness(p) is None
    rotations = [g.rotation(v) for v in g.vertices()]
    assert rotations == [expected.rotation(v) for v in expected.vertices()], f"T{p}"
    assert [g.neighbours(v) for v in g.vertices()] == [
        expected.neighbours(v) for v in expected.vertices()
    ]
    assert g.edge_count == expected.edge_count
    # the checks generate skips hold: the validating constructor accepts it
    assert build_embedded_graph(rotations) == g
    return True


def neighbour_coords(p, i, j):
    g = generate(p)
    return {vertex_coords(p, w) for w in g.rotation(vertex_id(p, i, j))}


class TestGenerate:
    def test_wrap_neighbours_of_t464(self):
        # t=4, n=6: 1-t = -3 = 3 and 1-t-1 = -4 = 2 (mod 6)
        nbrs = neighbour_coords(TorusParams(4, 6, 4), 4, 1)
        assert (1, 3) in nbrs and (1, 2) in nbrs

    def test_t1_13_4_neighbours_of_vertex_one(self):
        g = generate(TorusParams(1, 13, 4))
        assert set(g.rotation(1)) == {2, 13, 5, 10, 6, 9}

    def test_t1_7_2_is_complete(self):
        g = generate(TorusParams(1, 7, 2))
        for u in g.vertices():
            for v in g.vertices():
                if u != v:
                    assert g.has_edge(u, v)

    def test_not_simple_raises_with_witness(self):
        with pytest.raises(NotSimpleError) as exc:
            generate(TorusParams(1, 4, 1))
        assert "twice" in str(exc.value) or "loop" in str(exc.value)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TorusParams(0, 5, 1)
        with pytest.raises(ValueError):
            TorusParams(2, 5, 5)
        with pytest.raises(ValueError):
            TorusParams(2, 5, -1)


class TestMatchesCoordinateOracle:
    def test_tier1_box(self):
        # every T(m,n,t) with m <= 8, n <= 14, the non-simple ones included
        outcomes = [
            assert_matches_reference(TorusParams(m, n, t))
            for m in range(1, 9)
            for n in range(1, 15)
            for t in range(n)
        ]
        assert 0 < sum(outcomes) < len(outcomes) == 840

    def test_pinned_witnesses(self):
        assert simplicity_witness(TorusParams(1, 1, 0)) == "self-loop at (1,1)"
        assert simplicity_witness(TorusParams(3, 2, 1)) == "vertex (1,1) lists (1,2) twice"
        assert simplicity_witness(TorusParams(1, 5, 2)) == "vertex (1,1) lists (1,3) twice"
        assert simplicity_witness(TorusParams(2, 6, 5)) == "vertex (1,1) lists (2,6) twice"

    @pytest.mark.slow
    @pytest.mark.parametrize("m", range(1, 21))
    def test_wide_sweep(self, m):
        # m <= 20, n <= 40: beyond the m <= 10, n <= 12 box
        for n in range(1, 41):
            for t in range(n):
                assert_matches_reference(TorusParams(m, n, t))


class TestIsSimple:
    def test_m1_shift_too_small(self):
        assert not is_simple(TorusParams(1, 4, 1))

    def test_m1_repeated_neighbour(self):
        # vertex 1 would list 3 twice: 1+2 and 1-(2+1) = 3 (mod 5)
        assert not is_simple(TorusParams(1, 5, 2))
        assert "twice" in simplicity_witness(TorusParams(1, 5, 2))

    def test_known_simple_instances(self):
        for m, n, t in [(4, 6, 4), (2, 5, 2), (1, 13, 4), (7, 7, 5)]:
            assert is_simple(TorusParams(m, n, t))

    def test_every_nonsimple_witness_is_concrete(self):
        for n in range(3, 13):
            for t in range(n):
                p = TorusParams(1, n, t)
                w = simplicity_witness(p)
                if w is not None:
                    assert "twice" in w or "self-loop" in w
                    with pytest.raises(NotSimpleError):
                        generate(p)


class TestStructure:
    def test_counts_and_surface(self):
        for m in range(1, 7):
            for n in range(3, 9):
                for t in range(n):
                    p = TorusParams(m, n, t)
                    if not is_simple(p):
                        continue
                    g = generate(p)
                    faces = trace_faces(g)
                    assert g.vertex_count == m * n
                    assert g.edge_count == 3 * m * n
                    assert len(faces) == 2 * m * n
                    assert all(f.size == 3 for f in faces)
                    assert euler_characteristic(g) == 0
                    assert is_6regular_triangulation(g)


def held_bytes_per_vertex(build) -> float:
    """Bytes still allocated, per vertex, once build() has returned its graph."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / g.vertex_count


class TestFootprint:
    """A graph holds its rotation tuples and nothing per vertex besides:
    six ids and a tuple come to about 280 bytes a vertex, and a neighbour
    frozenset per vertex would add about 700 more."""

    P = TorusParams(60, 60, 7)

    def test_generated(self):
        assert held_bytes_per_vertex(lambda: generate(self.P)) < 500

    def test_parsed(self):
        text = write_graph(generate(self.P))
        assert held_bytes_per_vertex(lambda: parse_graph(text)) < 500


class TestCanonicalM1:
    def test_examples(self):
        assert canonical_m1(13, 8) == (13, 4)
        assert canonical_m1(13, 4) == (13, 4)
        assert canonical_m1(7, 3) == (7, 3)

    def test_mirror_parameters_give_isomorphic_graphs(self):
        # j -> (n+1-j) mod n maps T(1,n,t) onto T(1,n,n-t-1)
        for n in range(3, 16):
            for t in range(n):
                p = TorusParams(1, n, t)
                if not is_simple(p):
                    continue
                q = TorusParams(1, n, n - t - 1)
                assert is_simple(q)
                g, h = generate(p), generate(q)
                phi = lambda j: (n + 1 - j - 1) % n + 1
                for u in g.vertices():
                    assert {phi(w) for w in g.rotation(u)} == set(h.rotation(phi(u)))

    def test_canonical_parameters_generate_same_graph(self):
        for n in range(5, 16):
            for t in range(2, n):
                p = TorusParams(1, n, t)
                if not is_simple(p):
                    continue
                _, tc = canonical_m1(n, t)
                g, h = generate(p), generate(TorusParams(1, n, tc))
                assert {frozenset(e) for e in g.edges()} == {
                    frozenset(e) for e in h.edges()
                }


class TestCoordinates:
    def test_flattening_round_trip(self):
        p = TorusParams(4, 6, 4)
        for i in range(1, 5):
            for j in range(1, 7):
                assert vertex_coords(p, vertex_id(p, i, j)) == (i, j)
        assert vertex_id(p, 1, 1) == 1
        assert vertex_id(p, 4, 6) == 24
