"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines on the terminal.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from oddtorus.colouring import is_nice
from oddtorus.construct import base_colouring, colour_m1, colour_torus
from oddtorus.discharge import apply_rules, initial_charges
from oddtorus.embedding import (
    build_embedded_graph,
    euler_characteristic,
    is_6regular_triangulation,
    trace_faces,
)
from oddtorus.solver import PartialColouring, chi_odd, chi_odd_bruteforce, forbidden_colours
from oddtorus.torus import TorusParams, generate, is_simple, vertex_coords

from conftest import cycle_graph, random_connected_embedding, random_graph


def report(label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def sweep_params() -> list[TorusParams]:
    """All simple T(m,n,t) with 1 <= m <= 10, 3 <= n <= 12, 0 <= t < n."""
    return [
        p
        for m in range(1, 11)
        for n in range(3, 13)
        for t in range(n)
        if is_simple(p := TorusParams(m, n, t))
    ]


def test_criterion_1_constructive_sweep(sweep_params):
    def check():
        start = time.perf_counter()
        for p in sweep_params:
            assert is_nice(generate(p), colour_torus(p)), f"not nice on T{p}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
        assert len(sweep_params) > 500

    report("criterion 1: constructive sweep (m<=10, n<=12) all nice, <10s", check)


def test_criterion_2_reference_instances():
    expected_recolourings = {
        (7, 7, 5): {(2, 5): 9, (2, 7): 7, (7, 5): 1, (7, 7): 3},
        (7, 5, 3): {(2, 5): 9, (7, 5): 3},
        (5, 7, 5): {(2, 7): 7, (4, 2): 7, (2, 5): 9, (4, 7): 9},
        (5, 5, 3): {(2, 5): 9, (4, 1): 9},
    }

    def check():
        for (m, n, t), expected in expected_recolourings.items():
            p = TorusParams(m, n, t)
            c = colour_torus(p)
            base = base_colouring(m, n)
            got = {
                vertex_coords(p, v): c[v]
                for v in generate(p).vertices()
                if c[v] != base[v]
            }
            assert got == expected, f"T{p}: {got} != {expected}"
        # m = 1 reference instance: exact equality of the whole colouring
        c = colour_m1(13, 4)
        assert [c[v] for v in range(1, 14)] == [1, 2, 3, 1, 4, 5, 6, 5, 7, 8, 9, 7, 6]
        # m = 2 reference instance: exact recoloured set
        p = TorusParams(2, 5, 2)
        c = colour_torus(p)
        base = base_colouring(2, 5)
        changed = {
            vertex_coords(p, v): c[v] for v in generate(p).vertices() if c[v] != base[v]
        }
        assert changed == {(1, 1): 7, (1, 3): 8}, f"T{p}: {changed}"
        assert is_nice(generate(p), c)

    report("criterion 2: reference-instance recolouring sets match exactly", check)


def test_criterion_3_exact_anchors():
    def check():
        start = time.perf_counter()
        assert chi_odd(cycle_graph(5), 9) == 5
        assert time.perf_counter() - start < 5.0
        start = time.perf_counter()
        k7 = generate(TorusParams(1, 7, 2))
        assert chi_odd(k7, 9) == 7
        assert chi_odd_bruteforce(k7, 9) == 7
        assert time.perf_counter() - start < 5.0

    report("criterion 3: chi_odd(C5)=5 and chi_odd(K7)=7 with oracle, <5s each", check)


def test_criterion_4_oracle_equivalence():
    def check():
        # isomorph-free exhaustive: every connected graph on <= 7 vertices
        atlas = [
            G for G in graph_atlas_g()
            if G.number_of_nodes() >= 1 and nx.is_connected(G)
        ]
        assert len(atlas) == 996
        for G in atlas:
            nodes = sorted(G.nodes())
            idx = {u: i + 1 for i, u in enumerate(nodes)}
            g = build_embedded_graph(
                {idx[u]: sorted(idx[w] for w in G.neighbors(u)) for u in nodes}
            )
            n = g.vertex_count
            assert chi_odd(g, n) == chi_odd_bruteforce(g, n), f"atlas {G.name}"
        # plus 200 random graphs on 7..9 vertices
        rng = random.Random(20260810)
        for trial in range(200):
            g = random_graph(rng, rng.randint(7, 9), rng.uniform(0.2, 0.8))
            n = g.vertex_count
            assert chi_odd(g, n) == chi_odd_bruteforce(g, n), f"random {trial}"

    report("criterion 4: chi_odd agrees with brute force (996 atlas + 200 random)", check)


def test_criterion_5_discharging_identity(sweep_params):
    def check():
        zero = Fraction(0)
        for p in sweep_params:
            g = generate(p)
            before = initial_charges(g)
            after = apply_rules(g, before)
            assert set(before.vertex_charge.values()) == {zero}
            assert set(before.face_charge.values()) == {zero}
            assert set(after.vertex_charge.values()) == {zero}
            assert set(after.face_charge.values()) == {zero}
        rng = random.Random(5050)
        for _ in range(100):
            g = random_connected_embedding(rng, rng.randint(4, 14))
            before = initial_charges(g)
            after = apply_rules(g, before)
            expected = 6 * (g.edge_count - g.vertex_count - len(before.faces))
            assert before.total == after.total == expected

    report("criterion 5: ledgers zero on the sweep; conservation on 100 random", check)


def test_criterion_6_forbidden_colour_bound():
    def check():
        rng = random.Random(6060)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.9))
            v = rng.randint(1, g.vertex_count)
            keep_all = rng.random() < 0.5
            assignment = {
                w: rng.randint(1, 9)
                for w in g.vertices()
                if w != v and (keep_all or w in g.neighbours(v) or rng.random() < 0.5)
            }
            pc = PartialColouring.on(g, assignment)
            forbidden = forbidden_colours(g, pc, v, relaxed=True)
            assert len(forbidden) <= 2 * g.degree(v)

    report("criterion 6: |forbidden| <= 2 deg(v) on 1000 random triples", check)


def test_criterion_7_structural_invariants(sweep_params):
    def check():
        for p in sweep_params:
            g = generate(p)
            m, n = p.m, p.n
            faces = trace_faces(g)
            assert g.vertex_count == m * n
            assert g.edge_count == 3 * m * n
            assert len(faces) == 2 * m * n
            assert euler_characteristic(g) == 0
            assert is_6regular_triangulation(g)
            marks = [e for f in faces for e in f.walk]
            assert len(marks) == len(set(marks)) == 2 * g.edge_count
            assert sorted(marks) == sorted(g.directed_edges())

    report("criterion 7: V=mn, E=3mn, F=2mn, chi=0, face partition exact", check)


def test_criterion_8_torus_bound_consistency(sweep_params):
    def check():
        small = [p for p in sweep_params if p.m * p.n <= 12]
        assert small
        for p in small:
            assert chi_odd(generate(p), 9) is not None, f"T{p}"

    report("criterion 8: chi_odd(T, 9) defined for every simple T with mn <= 12", check)
