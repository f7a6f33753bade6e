"""Constructive nice colourings: base colouring, classification,
reference instances."""

from __future__ import annotations

import pytest

from oddtorus.colouring import Colouring, is_nice, nice_witness, odd_colours
from oddtorus.construct import (
    COLOUR_CLASSES,
    IntervalPartition,
    _cycle_pattern,
    base_colour,
    base_colouring,
    classify,
    colour_m1,
    colour_m2,
    colour_torus,
    repairs,
)
from oddtorus.errors import NotSimpleError
from oddtorus.torus import (
    TorusParams,
    canonical_m1,
    generate,
    is_simple,
    vertex_coords,
    vertex_id,
)


def recoloured_map(p: TorusParams) -> dict[tuple[int, int], int]:
    """Vertices whose constructed colour differs from the base, as
    coordinate -> new colour."""
    c = colour_torus(p)
    base = base_colouring(p.m, p.n)
    g = generate(p)
    return {
        vertex_coords(p, v): c[v] for v in g.vertices() if c[v] != base[v]
    }


class TestBaseColouring:
    def test_m7_n7_cells(self):
        p = TorusParams(7, 7, 5)
        b = base_colouring(7, 7)
        assert b[vertex_id(p, 1, 1)] == 1
        assert b[vertex_id(p, 3, 2)] == 8
        # column m uses the middle class when m = 1 mod 3
        assert b[vertex_id(p, 7, 1)] == 4

    def test_m5_n7_cell(self):
        p = TorusParams(5, 7, 5)
        assert base_colouring(5, 7)[vertex_id(p, 4, 1)] == 1

    def test_m6_n6_no_exceptions(self):
        p = TorusParams(6, 6, 1)
        assert base_colouring(6, 6)[vertex_id(p, 6, 6)] == 9

    def test_row_exception_only_when_n_is_one_mod_three(self):
        p = TorusParams(3, 7, 2)
        b = base_colouring(3, 7)
        assert b[vertex_id(p, 1, 7)] == 2  # second element of C1

    def test_cell_rule_matches_whole_colouring(self):
        for m, n in [(2, 7), (4, 5), (6, 6), (7, 7), (5, 8)]:
            p = TorusParams(m, n, 0)
            b = base_colouring(m, n)
            for v in range(1, m * n + 1):
                assert base_colour(m, n, *vertex_coords(p, v)) == b[v]

    def test_next_column_colours_appear_exactly_once(self):
        # for a vertex outside bad columns, the colours one column over
        # at rows j and j-1 each appear exactly once in its neighbourhood
        for m, n, t in [(6, 6, 1), (7, 7, 5), (5, 8, 3)]:
            p = TorusParams(m, n, t)
            if not is_simple(p):
                continue
            g = generate(p)
            b = base_colouring(m, n)
            bad_cols = classify(m, n).bad_columns
            for i in range(1, m + 1):
                if i in bad_cols:
                    continue
                for j in range(1, n + 1):
                    v = vertex_id(p, i, j)
                    nbr_colours = [b[w] for w in g.rotation(v)]
                    i2 = i + 1 if i < m else 1
                    jj = j - p.t if i == m else j
                    for jside in (jj, jj - 1):
                        target = b[vertex_id(p, i2, jside)]
                        assert nbr_colours.count(target) == 1

    def test_every_vertex_sees_each_class_evenly(self):
        for m, n, t in [(7, 7, 5), (5, 5, 3), (4, 6, 4), (6, 9, 2)]:
            p = TorusParams(m, n, t)
            if not is_simple(p):
                continue
            g = generate(p)
            b = base_colouring(m, n)
            for v in g.vertices():
                for cls in COLOUR_CLASSES:
                    count = sum(1 for w in g.rotation(v) if b[w] in cls)
                    assert count % 2 == 0


class TestClassify:
    def test_both_one_mod_three(self):
        c = classify(7, 7)
        assert c.bad_columns == {1, 6}
        assert c.bad_rows == {1, 6}
        assert len(c.bad_vertices) == 4

    def test_both_zero_mod_three(self):
        c = classify(6, 9)
        assert not c.bad_columns and not c.bad_rows and not c.bad_vertices

    def test_two_mod_three(self):
        c = classify(5, 5)
        assert c.bad_columns == {1, 5}
        assert c.bad_rows == {1, 5}

    def test_bad_vertices_empty_unless_both_nonzero_residues(self):
        for m in range(3, 11):
            for n in range(3, 13):
                c = classify(m, n)
                if m % 3 == 0 or n % 3 == 0:
                    assert not c.bad_vertices
                else:
                    assert len(c.bad_vertices) == 4


class TestReferenceInstances:
    """Pinned recolouring sets for the worked example instances."""

    def test_t775(self):
        assert recoloured_map(TorusParams(7, 7, 5)) == {
            (2, 5): 9,
            (2, 7): 7,
            (7, 5): 1,
            (7, 7): 3,
        }

    def test_t753(self):
        assert recoloured_map(TorusParams(7, 5, 3)) == {(2, 5): 9, (7, 5): 3}

    def test_t575(self):
        assert recoloured_map(TorusParams(5, 7, 5)) == {
            (2, 7): 7,
            (4, 2): 7,
            (2, 5): 9,
            (4, 7): 9,
        }

    def test_t553(self):
        assert recoloured_map(TorusParams(5, 5, 3)) == {(2, 5): 9, (4, 1): 9}

    def test_t1_13_4_full_colouring(self):
        c = colour_m1(13, 4)
        assert [c[v] for v in range(1, 14)] == [1, 2, 3, 1, 4, 5, 6, 5, 7, 8, 9, 7, 6]

    def test_t252_two_vertices_recoloured_seven_eight(self):
        assert recoloured_map(TorusParams(2, 5, 2)) == {(1, 1): 7, (1, 3): 8}
        assert is_nice(generate(TorusParams(2, 5, 2)), colour_torus(TorusParams(2, 5, 2)))


def assert_repairs_match(ms, ns) -> None:
    """repairs(p), read in coordinates, is exactly the set colour_torus
    recolours, on every simple T(m,n,t) with m in ms and n in ns."""
    for m in ms:
        for n in ns:
            for t in range(n):
                p = TorusParams(m, n, t)
                if is_simple(p):
                    got = {vertex_coords(p, v): c for v, c in repairs(p).items()}
                    assert got == recoloured_map(p), f"T{p}"


class TestRepairs:
    def test_box(self):
        assert_repairs_match(range(2, 13), range(1, 21))

    @pytest.mark.slow
    @pytest.mark.parametrize("m", range(2, 31))
    def test_wide_box(self, m):
        assert_repairs_match([m], range(1, 41))

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            repairs(TorusParams(1, 7, 2))


def search_m2(p: TorusParams) -> Colouring:
    """Test oracle for colour_m2: the base colouring with the first ordered
    pair (u, w) of distinct non-adjacent vertices, in lexicographic order,
    whose recolouring u -> 7, w -> 8 the verifier accepts."""
    g = generate(p)
    base = base_colouring(2, p.n)
    for u in g.vertices():
        for w in g.vertices():
            if w == u or g.has_edge(u, w):
                continue
            candidate = base.with_recoloured({u: 7, w: 8})
            if nice_witness(g, candidate) is None:
                return candidate
    raise AssertionError(f"no recolouring pair makes T{p} nice")


def base_not_odd_m2(n: int, t: int) -> set[tuple[int, int]]:
    """Where the base colouring of simple T(2,n,t) is not odd, as stated
    in the colour_m2 docstring."""
    if t % 3 == 0 and n % 3 == 1:
        return {(1, 1), (2, 1), (1, n - 1), (2, n - 1)}
    if t % 3 == 0 and n % 3 == 2:
        return {(1, 1), (2, n)}
    if t % 3 == 1 and n % 3 == 2:
        return {(2, 1), (1, n)}
    return set()


class TestColourM2:
    def test_matches_search_oracle(self):
        # the closed form picks the pair the old lexicographic search picked
        for n in range(4, 36):
            if n % 3 == 0:
                continue
            for t in range(1, n - 2):
                p = TorusParams(2, n, t)
                assert colour_m2(p).assignment == search_m2(p).assignment, f"T{p}"

    def test_base_not_odd_vertices(self):
        # the failures of the base colouring that the repair targets;
        # simple T(2,n,t) are exactly those with n >= 4 and 1 <= t <= n-3
        for n in range(1, 41):
            for t in range(n):
                p = TorusParams(2, n, t)
                assert is_simple(p) == (n >= 4 and 1 <= t <= n - 3), f"T{p}"
                if not is_simple(p):
                    continue
                g = generate(p)
                base = base_colouring(2, n)
                not_odd = {
                    vertex_coords(p, v)
                    for v in g.vertices()
                    if not odd_colours(base.assignment, g.rotation(v))
                }
                assert not_odd == base_not_odd_m2(n, t), f"T{p}"

    @pytest.mark.slow
    def test_full_sweep_to_two_hundred(self):
        for n in range(1, 201):
            for t in range(n):
                p = TorusParams(2, n, t)
                if is_simple(p):
                    assert is_nice(generate(p), colour_m2(p)), f"T{p}"

    def test_n_multiple_of_three_keeps_base(self):
        p = TorusParams(2, 6, 1)
        assert is_simple(p)
        assert colour_m2(p).assignment == base_colouring(2, 6).assignment

    def test_t272_verified_nice(self):
        p = TorusParams(2, 7, 2)
        assert is_simple(p)
        c = colour_m2(p)
        assert is_nice(generate(p), c)
        base = base_colouring(2, 7)
        changed = {v for v in generate(p).vertices() if c[v] != base[v]}
        assert len(changed) == 2


class TestIntervalPartition:
    def test_r4_classes(self):
        part = IntervalPartition.build(13, 4)
        assert part.r == 4
        assert part.intervals == (
            (1, 2, 3, 4),
            (5, 6, 7, 8),
            (9, 10, 11, 12),
            (13,),
        )
        assert part.interval_class == (1, 2, 3, 2)

    def test_r5_classes(self):
        part = IntervalPartition.build(9, 2)
        assert part.r == 5
        assert part.interval_class == (1, 2, 3, 2, 3)

    def test_r3_exact_division(self):
        part = IntervalPartition.build(9, 3)
        assert part.r == 3
        assert part.interval_class == (1, 2, 3)

    def test_residual_interval_short(self):
        part = IntervalPartition.build(11, 3)
        assert part.intervals[-1] == (10, 11)


def reference_colour_m1(n: int, t: int) -> Colouring:
    """Test oracle for colour_m1: colour each class along the components
    of the subgraph it induces in the generated graph, found by walking
    that subgraph.  A path starts at its smaller endpoint, a cycle at its
    smallest vertex stepping towards its smaller neighbour."""
    g = generate(TorusParams(1, n, t))
    part = IntervalPartition.build(*canonical_m1(n, t))
    assignment: dict[int, int] = {}
    for class_idx in (1, 2, 3):
        cls = COLOUR_CLASSES[class_idx - 1]
        members = part.class_members(class_idx)
        member_set = set(members)
        adjacency = {v: sorted(w for w in g.rotation(v) if w in member_set) for v in members}
        assert all(len(nbrs) <= 2 for nbrs in adjacency.values()), f"T(1,{n},{t})"
        seen: set[int] = set()
        # ascending endpoints first: each path is entered at its smaller end
        for v in sorted(x for x in members if len(adjacency[x]) < 2) + sorted(members):
            if v in seen:
                continue
            walk, nxt = [], [v]
            while nxt:
                walk.append(nxt[0])
                seen.add(nxt[0])
                nxt = [w for w in adjacency[nxt[0]] if w not in seen]
            if len(adjacency[v]) == 2:
                pattern = _cycle_pattern(len(walk))
            else:
                pattern = [k % 3 + 1 for k in range(len(walk))]
            for w, idx in zip(walk, pattern):
                assignment[w] = cls[idx - 1]
    return Colouring(assignment)


class TestColourM1:
    def test_r3_gives_nine_distinct(self):
        c = colour_m1(9, 3)
        assert [c[v] for v in range(1, 10)] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert is_nice(generate(TorusParams(1, 9, 3)), c)

    def test_k7_all_distinct(self):
        c = colour_m1(7, 2)
        assert c.colour_count == 7
        assert is_nice(generate(TorusParams(1, 7, 2)), c)

    def test_noncanonical_shift_accepted(self):
        # T(1,13,8) is the same graph as T(1,13,4)
        c = colour_m1(13, 8)
        assert is_nice(generate(TorusParams(1, 13, 8)), c)

    def test_class_containment(self):
        for n, t in [(13, 4), (9, 2), (11, 2), (12, 5), (10, 3)]:
            if not is_simple(TorusParams(1, n, t)):
                continue
            c = colour_m1(n, t)
            part = IntervalPartition.build(*__import__("oddtorus").canonical_m1(n, t))
            for idx in (1, 2, 3):
                members = part.class_members(idx)
                for v in members:
                    assert c[v] in COLOUR_CLASSES[idx - 1]

    def test_canonical_sweep(self):
        # colour_m1 has no fallback: the interval colouring itself must be
        # nice on every simple instance
        for n in range(1, 61):
            for t in range(n):
                p = TorusParams(1, n, t)
                if canonical_m1(n, t)[1] == t and is_simple(p):
                    c = colour_m1(n, t)
                    assert is_nice(generate(p), c), f"T{p}"
                    assert c.assignment == reference_colour_m1(n, t).assignment, f"T{p}"

    @pytest.mark.slow
    def test_full_sweep_to_two_hundred(self):
        for n in range(1, 201):
            for t in range(n):
                p = TorusParams(1, n, t)
                if is_simple(p):
                    c = colour_m1(n, t)
                    assert is_nice(generate(p), c), f"T{p}"
                    assert c.assignment == reference_colour_m1(n, t).assignment, f"T{p}"

    def test_singleton_component_instance(self):
        # T(1,11,2): interval 6 is the singleton {11} inside class 3
        p = TorusParams(1, 11, 2)
        assert is_simple(p)
        assert is_nice(generate(p), colour_m1(11, 2))


class TestColourTorus:
    def test_dispatch_examples(self):
        for m, n, t in [(4, 6, 4), (2, 5, 2), (1, 13, 4)]:
            p = TorusParams(m, n, t)
            assert is_nice(generate(p), colour_torus(p))

    def test_base_only_branch(self):
        p = TorusParams(4, 6, 4)  # m=1 mod 3, n=0 mod 3: no recolouring
        assert colour_torus(p).assignment == base_colouring(4, 6).assignment

    def test_not_simple_raises(self):
        with pytest.raises(NotSimpleError):
            colour_torus(TorusParams(1, 4, 1))
        # canonical shift 0: the simplicity check runs before the partition
        for n, t in [(5, 0), (9, 8)]:
            with pytest.raises(NotSimpleError):
                colour_m1(n, t)

    def test_recoloured_set_is_independent_in_one_one_case(self):
        for m, n, t in [(7, 7, 5), (4, 4, 2), (10, 7, 3), (7, 10, 4)]:
            p = TorusParams(m, n, t)
            if not is_simple(p):
                continue
            g = generate(p)
            base = base_colouring(m, n)
            c = colour_torus(p)
            changed = [v for v in g.vertices() if c[v] != base[v]]
            assert len(changed) == 4
            for u in changed:
                for w in changed:
                    if u != w:
                        assert not g.has_edge(u, w)

    def test_sweep_box(self):
        for m in range(1, 11):
            for n in range(3, 13):
                for t in range(n):
                    p = TorusParams(m, n, t)
                    if not is_simple(p):
                        continue
                    assert is_nice(generate(p), colour_torus(p)), f"T{p}"
