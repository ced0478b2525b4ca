"""Metamorphic relations: how an answer must move, or stay, when the input
moves in a known way.  They need no optimum, so the FPT relations run on
cover graphs of 60-300 vertices, far past the oracle's 16.

- Relabelling.  A seeded vertex permutation, with weights and the cover
  carried along, leaves every exact value unchanged and keeps `minmax_bcpk`
  within k/2 of the optimum.
- Monotone in k.  A max-min optimum never rises with k (merge two adjacent
  classes), nor does a min-max optimum (split a class at a non-cut vertex).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bcp.fpt import solve_fpt_maxmin
from bcp.graph import WeightedGraph
from bcp.instances import FAMILIES, generate
from bcp.minmax import minmax_bcpk
from bcp.oracle import exact_maxmin, exact_minmax
from bcp.partition import validate, w_plus


def relabel(g, perm):
    """g with vertex v renamed perm[v], its weight carried along."""
    weights = [0] * g.n
    for v, w in enumerate(g.weights):
        weights[perm[v]] = w
    return WeightedGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], weights)


def permutation(n, seed):
    perm = list(range(n))
    random.Random(f"perm:{seed}").shuffle(perm)
    return perm


def cover_graph(seed):
    """A connected unit-weight graph on the cover 0..c-1, c of 6 or 7, and
    54-293 stable vertices in 3-8 groups, each group sharing one random
    neighbourhood of 1-3 cover vertices; with its cover."""
    rng = random.Random(f"cover-graph:{seed}")
    c = rng.choice((6, 7))
    stable = rng.randint(60, 300) - c
    edges = {(rng.randrange(v), v) for v in range(1, c)}
    groups = rng.randint(3, 8)
    hoods = set()
    while len(hoods) < groups:
        hoods.add(tuple(sorted(rng.sample(range(c), rng.randint(1, 3)))))
    hoods = sorted(hoods)
    for v in range(c, c + stable):
        edges.update((u, v) for u in hoods[rng.randrange(len(hoods))])
    return WeightedGraph.from_edges(c + stable, sorted(edges)), tuple(range(c))


COVER_SEEDS = range(16)
SMALL = [(family, n) for family in FAMILIES for n in (8, 10, 12)]


@pytest.mark.parametrize("family, n", SMALL)
def test_relabelling_keeps_exact_optima(family, n):
    g = generate(family, n, (1, 9), n)
    for seed in range(2):
        h = relabel(g, permutation(n, seed))
        for k in (2, 3, 4):
            assert exact_minmax(h, k)[0] == exact_minmax(g, k)[0], (seed, k)
            assert exact_maxmin(h, k)[0] == exact_maxmin(g, k)[0], (seed, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_relabelling_keeps_minmax_within_half_k(family):
    for n in (8, 9, 10):
        g = generate(family, n, (1, 9), n)
        for k in (3, 4):
            opt = exact_minmax(g, k)[0]
            for seed in range(3):
                h = relabel(g, permutation(n, seed))
                result = minmax_bcpk(h, k)
                assert validate(h, result.classes, k) == []
                assert w_plus(h, result.classes) <= Fraction(k, 2) * opt, (n, k, seed)


def test_relabelling_keeps_fpt_value_from_the_split_and_the_search():
    # Relabelling moves the root of G's DFS tree, so an answer may come from
    # the tree split (nodes == 0) on one labelling and from the search on
    # another; both must give one value, and both kinds must occur.
    kinds = Counter()
    for seed in COVER_SEEDS:
        g, cover = cover_graph(seed)
        perm = permutation(g.n, seed)
        h, h_cover = relabel(g, perm), [perm[v] for v in cover]
        for k in range(2, 6):
            plain = solve_fpt_maxmin(g, k, cover)
            moved = solve_fpt_maxmin(h, k, h_cover)
            assert moved.value == plain.value, (seed, k)
            assert validate(h, moved.classes, k) == []
            kinds.update("split" if r.nodes == 0 else "search" for r in (plain, moved))
    assert kinds["split"] and kinds["search"], kinds


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_optima_do_not_rise_with_k(family):
    for n in (8, 10):
        g = generate(family, n, (1, 9), n + 1)
        minmax = [exact_minmax(g, k)[0] for k in range(2, n + 1)]
        maxmin = [exact_maxmin(g, k)[0] for k in range(2, n + 1)]
        assert minmax == sorted(minmax, reverse=True), (n, minmax)
        assert maxmin == sorted(maxmin, reverse=True), (n, maxmin)


@pytest.mark.parametrize("seed", COVER_SEEDS)
def test_fpt_value_does_not_rise_with_k(seed):
    g, cover = cover_graph(seed)
    values = [solve_fpt_maxmin(g, k, cover).value for k in range(2, len(cover) + 2)]
    assert values == sorted(values, reverse=True), values
