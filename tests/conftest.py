"""Shared fixtures: small graphs, random embeddings, drawing-based fixtures."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import strategies as st

from oddtorus.embedding import EmbeddedGraph, build_embedded_graph
from oddtorus.torus import TorusParams, generate


def cycle_graph(k: int) -> EmbeddedGraph:
    """C_k with its unique rotation system (prev, next)."""
    return build_embedded_graph(
        {v: [(v - 2) % k + 1, v % k + 1] for v in range(1, k + 1)}
    )


def path_graph(k: int) -> EmbeddedGraph:
    rot = {1: [2], k: [k - 1]}
    for v in range(2, k):
        rot[v] = [v - 1, v + 1]
    return build_embedded_graph(rot)


def from_adjacency(adj: dict[int, list[int]]) -> EmbeddedGraph:
    """Embed an abstract graph with neighbour lists as given (any cyclic
    order is a valid rotation system on some orientable surface)."""
    return build_embedded_graph({v: list(ws) for v, ws in adj.items()})


def embedding_from_points(points: dict[int, tuple[float, float]], edges) -> EmbeddedGraph:
    """Planar straight-line drawing -> rotation system (CCW by angle).

    For a crossing-free drawing the traced faces are the drawing's faces
    plus the outer face, which makes degree/size fixtures easy to state.
    """
    adj: dict[int, list[int]] = {v: [] for v in points}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rotations = {}
    for v, nbrs in adj.items():
        x, y = points[v]
        rotations[v] = sorted(
            nbrs, key=lambda w: math.atan2(points[w][1] - y, points[w][0] - x)
        )
    return build_embedded_graph(rotations)


def random_connected_embedding(rng: random.Random, n: int, extra_max: int | None = None):
    """Random connected graph with a shuffled rotation system."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        w = rng.choice(verts[:i])
        edges.add((min(verts[i], w), max(verts[i], w)))
    if extra_max is None:
        extra_max = 2 * n
    for _ in range(rng.randint(0, extra_max)):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        rng.shuffle(adj[v])
    return build_embedded_graph(adj)


def scrambled_torus(m: int, n: int, t: int, ops: int, seed: int) -> EmbeddedGraph:
    """T(m,n,t) after ``ops`` seeded attempts to delete an edge (keeping
    degrees >= 3) or to add one at random positions of both rotations.

    The result is simple but usually no longer embedded on the torus, so
    its charges do not cancel and all four discharging rules fire."""
    rng = random.Random(seed)
    g = generate(TorusParams(m, n, t))
    rot = {v: list(g.rotation(v)) for v in g.vertices()}
    for _ in range(ops):
        u = rng.randint(1, len(rot))
        v = rng.choice(rot[u])
        if rng.random() < 0.5:
            if len(rot[u]) > 3 and len(rot[v]) > 3:
                rot[u].remove(v)
                rot[v].remove(u)
        else:
            w = rng.randint(1, len(rot))
            if w != u and w not in rot[u]:
                rot[u].insert(rng.randrange(len(rot[u]) + 1), w)
                rot[w].insert(rng.randrange(len(rot[w]) + 1), u)
    return build_embedded_graph(rot)


def random_graph(rng: random.Random, n: int, p: float) -> EmbeddedGraph:
    """G(n, p) with sorted rotations; may be disconnected."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return build_embedded_graph(adj)


@st.composite
def adjacencies(draw, max_n: int) -> dict[int, list[int]]:
    """Hypothesis strategy: neighbour lists, in ascending order, of a
    simple graph on 1..max_n vertices (possibly disconnected)."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for (u, v), keep in zip(pairs, present):
        if keep:
            adj[u].append(v)
            adj[v].append(u)
    return adj


@st.composite
def coloured_graphs(draw):
    """Hypothesis strategy: (graph on 1..9 vertices, a colour per
    vertex), colours not necessarily proper.

    Colours come from a drawn palette of up to six small or huge values,
    so that large colours also repeat within a neighbourhood."""
    adj = draw(adjacencies(9))
    n = len(adj)
    palette = draw(
        st.lists(
            st.one_of(st.integers(1, 12), st.integers(10**9, 10**40)),
            min_size=1, max_size=6, unique=True,
        )
    )
    colours = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return from_adjacency(adj), dict(zip(range(1, n + 1), colours))


@pytest.fixture
def k4_planar() -> EmbeddedGraph:
    """Tetrahedral embedding of K4 (rotations from a straight-line drawing)."""
    return embedding_from_points(
        {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.5, 0.87), 4: (0.5, 0.29)},
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    )


@pytest.fixture
def c5() -> EmbeddedGraph:
    return cycle_graph(5)
