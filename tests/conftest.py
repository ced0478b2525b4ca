import random

import pytest
from hypothesis import strategies as st

from bcp.graph import WeightedGraph


def path_graph(n, weights=None):
    return WeightedGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)], weights)


def cycle_graph(n, weights=None):
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    return WeightedGraph.from_edges(n, edges, weights)


def star_graph(n, weights=None):
    return WeightedGraph.from_edges(n, [(0, v) for v in range(1, n)], weights)


def grid_graph(rows, cols, weights=None):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return WeightedGraph.from_edges(rows * cols, edges, weights)


def triangle_graph(weights=None):
    return WeightedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], weights)


def spider_graph(legs, leg_len, center_weight=1, leaf_weight=1):
    """Center 0 with `legs` paths of `leg_len` vertices each."""
    edges = []
    v = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, v))
            prev = v
            v += 1
    weights = [center_weight] + [leaf_weight] * (v - 1)
    return WeightedGraph.from_edges(v, edges, weights)


def random_connected_graph(rng: random.Random, n, max_weight=8, extra_edges=None):
    """Random tree plus a few extra edges, random weights in [1, max_weight]."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    missing = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    if extra_edges is None:
        extra_edges = rng.randint(0, max(0, n // 2))
    extra_edges = min(extra_edges, len(missing))
    edges += rng.sample(missing, extra_edges)
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    return WeightedGraph.from_edges(n, edges, weights)


def family_graph(rng, family):
    """A random graph of one family: star, spider, grid, tree, sparse or
    dense.  Max weight 1 or 2 makes weight ties."""
    max_weight = rng.choice([1, 2, 9])

    def weights(n):
        return [rng.randint(1, max_weight) for _ in range(n)]

    if family == "star":
        n = rng.randint(4, 30)
        return star_graph(n, weights(n))
    if family == "spider":
        return spider_graph(
            rng.randint(3, 6), rng.randint(1, 6), rng.randint(1, 12), rng.randint(1, max_weight)
        )
    if family == "grid":
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        return grid_graph(rows, cols, weights(rows * cols))
    n = rng.randint(4, 30)
    extra = {"tree": 0, "sparse": None, "dense": n * (n - 1) // 3}[family]
    return random_connected_graph(rng, n, max_weight, extra_edges=extra)


@st.composite
def connected_graphs(draw, min_n=2, max_n=9, max_weight=8):
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    missing = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    )
    if missing:
        chosen = draw(st.sets(st.sampled_from(missing), max_size=min(len(missing), n)))
        edges += sorted(chosen)
    weights = draw(
        st.lists(st.integers(1, max_weight), min_size=n, max_size=n)
    )
    return WeightedGraph.from_edges(n, edges, weights)


@pytest.fixture
def rng():
    return random.Random(0xBC9)
