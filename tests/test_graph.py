import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcp.errors import ContractViolation, InputError
from bcp.graph import (
    WeightedGraph,
    _dfs_tree,
    boundary_neighbors,
    components,
    heaviest_piece,
    is_connected,
    mask_reach,
    non_cut_vertex,
    non_cut_vertices,
    split_at_least,
    split_two,
)
from bcp.instances import FAMILIES, generate
from bcp.minmax import minmax_bcpk, split_off_singletons
from bcp.oracle import exact_maxmin
from bcp.partition import sort_classes, validate

from .conftest import (
    connected_graphs,
    family_graph,
    path_graph,
    random_connected_graph,
    spider_graph,
    star_graph,
    triangle_graph,
)
from .reference import all_connected_kpartitions, dfs_tree_recursive


def fs(*vs):
    return frozenset(vs)


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(2, [(0, 0), (0, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(4, [(0, 1), (2, 3)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(2, [(0, 1)], [1, 0])

    @pytest.mark.parametrize(
        "n, edges, message",
        [(0, [], "vertex count must be >= 1, got 0"),
         (2, [(0, 5)], r"edge \(0,5\) out of range 0\.\.1")],
        ids=["no-vertices", "edge-range"],
    )
    def test_rejects_bad_order_and_endpoints(self, n, edges, message):
        with pytest.raises(InputError, match=message):
            WeightedGraph.from_edges(n, edges)

    def test_adjacency_sorted_and_totals(self):
        g = WeightedGraph.from_edges(3, [(2, 0), (0, 1)], [5, 2, 3])
        assert g.adjacency[0] == (1, 2)
        assert g.total_weight == 10
        assert g.m == 2
        assert g.edges() == [(0, 1), (0, 2)]

    def test_direct_construction_derives_total_weight(self):
        g = WeightedGraph(4, ((1,), (0, 2), (1, 3), (2,)), (1, 1, 1, 1))
        assert g.total_weight == 4
        result = minmax_bcpk(g, 3)
        assert validate(g, result.classes, 3) == []

    @pytest.mark.parametrize("weights", [(1, 0), (1, True), (1,), (1, 1, 1)])
    def test_direct_construction_rejects_bad_weights(self, weights):
        with pytest.raises(InputError):
            WeightedGraph(2, ((1,), (0,)), weights)

    def test_with_weights_shares_topology(self):
        g = path_graph(4)
        h = g.with_weights([3, 1, 4, 1])
        assert h.adjacency is g.adjacency
        assert (h.weights, h.total_weight) == ((3, 1, 4, 1), 9)

    @pytest.mark.parametrize("weights", [[1, 0, 1, 1], [1, True, 1, 1], [1, 1, 1], [1] * 5])
    def test_with_weights_rejects_bad_weights(self, weights):
        with pytest.raises(InputError):
            path_graph(4).with_weights(weights)


class TestComponents:
    def test_path_connected(self):
        g = path_graph(3)
        assert components(g, fs(0, 1, 2)) == [fs(0, 1, 2)]

    def test_path_middle_removed(self):
        g = path_graph(3)
        assert components(g, fs(0, 2)) == [fs(0), fs(2)]

    def test_star_leaves_are_singletons(self):
        g = star_graph(5)
        assert components(g, fs(1, 2, 3, 4)) == [fs(1), fs(2), fs(3), fs(4)]

    def test_empty_set_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            components(path_graph(3), frozenset())


class TestIsConnected:
    def test_path_prefix(self):
        assert is_connected(path_graph(3), fs(0, 1))

    def test_path_gap(self):
        assert not is_connected(path_graph(3), fs(0, 2))

    def test_empty_is_not_connected(self):
        assert not is_connected(path_graph(3), frozenset())


class TestNonCutVertex:
    def test_path_returns_far_endpoint(self):
        assert non_cut_vertex(path_graph(3), fs(0, 1, 2)) == 2

    def test_triangle(self):
        assert non_cut_vertex(triangle_graph(), fs(0, 1, 2)) == 2

    def test_star_never_returns_center(self):
        g = star_graph(5)
        assert non_cut_vertex(g, fs(0, 1, 2, 3, 4)) in {1, 2, 3, 4}

    def test_too_small_rejected(self):
        with pytest.raises(ContractViolation):
            non_cut_vertex(path_graph(3), fs(0))

    def test_disconnected_rejected(self):
        with pytest.raises(ContractViolation):
            non_cut_vertex(path_graph(3), fs(0, 2))


class TestSplitTwo:
    def test_path_deterministic(self):
        assert split_two(path_graph(3), fs(0, 1, 2)) == (fs(0), fs(1, 2))

    def test_star_isolates_one_leaf(self):
        # Any spanning-tree edge deletion on a star cuts off one leaf, so
        # the split shape is forced; the balanced tie-break picks edge (0,1).
        g = star_graph(4)
        a, b = split_two(g, fs(0, 1, 2, 3))
        assert (a, b) == (fs(0, 2, 3), fs(1))
        assert g.weight(a) == 3 and g.weight(b) == 1

    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1)], [5, 7])
        assert split_two(g, fs(0, 1)) == (fs(0), fs(1))

    def test_too_small_rejected(self):
        with pytest.raises(ContractViolation):
            split_two(path_graph(3), fs(1))

    def test_disconnected_rejected(self):
        with pytest.raises(ContractViolation, match="requires a connected vertex set"):
            split_two(path_graph(3), fs(0, 2))


class TestBoundaryNeighbors:
    def test_path_one_side(self):
        g = path_graph(5)
        assert boundary_neighbors(g, fs(0), fs(1, 2, 3)) == [1]

    def test_path_both_sides(self):
        g = path_graph(5)
        assert boundary_neighbors(g, fs(0, 4), fs(1, 2, 3)) == [1, 3]

    def test_non_adjacent(self):
        g = path_graph(5)
        assert boundary_neighbors(g, fs(0), fs(3, 4)) == []

    def test_overlap_rejected(self):
        with pytest.raises(ContractViolation):
            boundary_neighbors(path_graph(3), fs(0, 1), fs(1, 2))


class TestSplitAtLeast:
    def test_path_cut_from_the_far_end(self):
        assert split_at_least(path_graph(6), 3, 2) == [fs(0, 1), fs(2, 3), fs(4, 5)]

    def test_star_leaves_cut_off_one_by_one(self):
        assert split_at_least(star_graph(5), 3, 1) == [fs(0, 1, 2), fs(3), fs(4)]

    def test_star_cannot_reach_two(self):
        # Each leaf alone weighs 1, so the centre would keep every vertex.
        assert split_at_least(star_graph(5), 2, 2) is None

    @pytest.mark.parametrize(
        "bound, expected",
        [(5, [fs(0, 1, 2), fs(3, 4)]), (6, [fs(0, 1), fs(2, 3, 4)]), (7, None)],
    )
    def test_weighted_path(self, bound, expected):
        # At 7 the cut {1, 2, 3, 4} leaves the root's rest {0} weighing 5.
        assert split_at_least(path_graph(5, [5, 1, 1, 3, 2]), 2, bound) == expected

    def test_exact_on_trees(self):
        """On a tree the DFS tree is the tree itself, and the greedy reaches
        exactly the max-min optimum (Perl & Schach 1981)."""
        rng = random.Random(0x7EE)
        for _ in range(150):
            n = rng.randint(2, 10)
            g = random_connected_graph(rng, n, max_weight=9, extra_edges=0)
            k = rng.randint(2, min(n, 4))
            opt, _ = exact_maxmin(g, k)
            classes = split_at_least(g, k, opt)
            assert validate(g, classes, k) == []
            assert min(g.weight(c) for c in classes) >= opt
            assert split_at_least(g, k, opt + 1) is None

    @given(connected_graphs(max_n=12))
    def test_classes_are_connected_and_reach_the_bound(self, g):
        lightest = min(g.weights)
        for k in range(2, g.n + 1):
            for bound in (1, lightest, g.total_weight // k):
                classes = split_at_least(g, k, bound)
                if bound == lightest:
                    # Every residue reaches the bound, so the last k - 1
                    # preorder vertices are cut as singletons: the peel of
                    # the whole vertex set.
                    assert classes is not None
                    peeled = split_off_singletons(g, (frozenset(range(g.n)),), k - 1)
                    assert sort_classes(g, classes) == sort_classes(g, peeled)
                if classes is not None:
                    assert validate(g, classes, k) == []
                    assert min(g.weight(c) for c in classes) >= bound


@st.composite
def graph_and_subset(draw):
    g = draw(connected_graphs(min_n=2, max_n=9))
    members = draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n)
    )
    return g, frozenset(members)


@given(graph_and_subset())
def test_components_partition_the_subset(case):
    g, s = case
    comps = components(g, s)
    union = set()
    for c in comps:
        assert c, "no empty components"
        assert is_connected(g, c)
        assert not (union & c), "components are pairwise disjoint"
        union |= c
    assert union == s
    assert is_connected(g, s) == (len(comps) == 1)


@given(connected_graphs(min_n=2, max_n=9))
def test_non_cut_vertex_keeps_connectivity(g):
    s = frozenset(range(g.n))
    u = non_cut_vertex(g, s)
    assert is_connected(g, s - {u})


def test_mask_reach_is_the_component_of_the_lowest_bit():
    """On seeded random graphs with n <= 12, the reach of a mask (empty,
    one bit, or random) is the `components` class of its lowest bit."""
    rng = random.Random("mask-reach")
    seen = {"empty": 0, "single": 0, "split": 0, "whole": 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n)
        nbr = [sum(1 << w for w in g.adjacency[v]) for v in range(n)]
        masks = [0, 1 << rng.randrange(n)] + [rng.randrange(1 << n) for _ in range(8)]
        for mask in masks:
            s = frozenset(v for v in range(n) if mask >> v & 1)
            expected = sum(1 << v for v in components(g, s)[0]) if s else 0
            assert mask_reach(nbr, mask) == expected, (g.edges(), mask)
            kind = "empty" if not s else "single" if len(s) == 1 else "whole" if expected == mask else "split"
            seen[kind] += 1
    assert min(seen.values()) >= 100, seen


@given(connected_graphs(min_n=2, max_n=9))
def test_non_cut_vertices_repeat_non_cut_vertex(g):
    # Every class of each connected 2-partition too, where it has two members.
    sets = [frozenset(range(g.n))]
    if g.n <= 8:
        sets += [c for p in all_connected_kpartitions(g, 2) for c in p if len(c) >= 2]
    for s in sets:
        expected, left = [], s
        while len(left) > 1:
            # The rule from scratch: the last vertex of a fresh preorder.
            u = dfs_tree_recursive(g, left, min(left))[0][-1]
            assert non_cut_vertex(g, left) == u
            expected.append(u)
            left = left - {u}
        assert list(non_cut_vertices(g, s)) == expected


@given(connected_graphs(min_n=2, max_n=9))
def test_split_two_yields_connected_halves(g):
    s = frozenset(range(g.n))
    a, b = split_two(g, s)
    assert a and b
    assert a | b == s and not (a & b)
    assert is_connected(g, a) and is_connected(g, b)


def _transitive_closure_components(g, s):
    """Independent oracle: boolean reachability closure over members of s."""
    members = sorted(s)
    idx = {v: i for i, v in enumerate(members)}
    reach = [[u == v for v in members] for u in members]
    for u in members:
        for v in g.adjacency[u]:
            if v in s:
                reach[idx[u]][idx[v]] = True
    for mid in range(len(members)):
        for a in range(len(members)):
            if reach[a][mid]:
                row_a, row_m = reach[a], reach[mid]
                for b in range(len(members)):
                    if row_m[b]:
                        row_a[b] = True
    comps = []
    assigned = set()
    for i, u in enumerate(members):
        if u in assigned:
            continue
        comp = frozenset(v for j, v in enumerate(members) if reach[i][j])
        comps.append(comp)
        assigned |= comp
    return comps


def test_components_agree_with_transitive_closure_oracle():
    rng = random.Random(404)
    for trial in range(200):
        n = rng.randint(2, 20)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        present = {(min(u, v), max(u, v)) for u, v in edges}
        missing = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
        ]
        edges += rng.sample(missing, min(len(missing), rng.randint(0, n)))
        g = WeightedGraph.from_edges(n, edges)
        size = rng.randint(1, n)
        s = frozenset(rng.sample(range(n), size))
        assert components(g, s) == _transitive_closure_components(g, s)


def test_dfs_tree_matches_recursive_reference():
    """Every connectivity primitive and `initial_3partition` read this
    preorder and parent map, so they must be those of the textbook
    recursive DFS, from any root and inside any subset."""
    rng = random.Random(9)
    graphs = [
        generate(family, rng.randint(3, 400), (1, 1), seed)
        for family in FAMILIES
        for seed in range(8)
    ]
    for _ in range(16):
        n = rng.randint(3, 40)
        graphs.append(random_connected_graph(rng, n, extra_edges=n * (n - 1) // 3))
    for g in graphs:
        subsets = [frozenset(range(g.n)), _random_connected_subset(g, rng)]
        for keep in (0.9, 0.6):
            subsets.append(frozenset(v for v in range(g.n) if rng.random() < keep) or fs(0))
        for s in subsets:
            for root in (min(s), rng.choice(sorted(s))):
                assert _dfs_tree(g, s, root) == dfs_tree_recursive(g, s, root)


def _random_connected_subset(g, rng):
    """A connected vertex set grown from a random vertex to a random size."""
    s = {rng.randrange(g.n)}
    for _ in range(rng.randint(1, g.n - 1)):
        s.add(rng.choice(sorted({y for x in s for y in g.adjacency[x]} - s)))
    return frozenset(s)


class TestHeaviestPiece:
    def test_path_middle(self):
        g = path_graph(5, [1, 1, 5, 2, 1])
        s = fs(0, 1, 2, 3, 4)
        assert heaviest_piece(g, s, 2, 10) == (fs(3, 4), 3, fs(0, 1, 2))
        assert heaviest_piece(g, s, 0, 10) == (fs(1, 2, 3, 4), 9, fs(0))

    def test_tie_goes_to_larger_smallest_id(self):
        g = star_graph(4)
        assert heaviest_piece(g, fs(0, 1, 2, 3), 0, 4) == (fs(3), 1, fs(0, 1, 2))
        g = spider_graph(3, 2)  # legs 1-2, 3-4, 5-6
        assert heaviest_piece(g, frozenset(range(7)), 0, 7) == (fs(5, 6), 2, fs(0, 1, 2, 3, 4))

    def test_unwalked_rest_ties_by_its_smallest_id(self):
        # Removing v leaves a one-vertex piece, found in the first round, and
        # a rest that is never walked; both weigh 5, and the larger smallest
        # id wins: the piece {5} over the rest {0, 1, 2, 3} ...
        s = frozenset(range(6))
        g = path_graph(6, [1, 1, 1, 2, 1, 5])
        assert heaviest_piece(g, s, 4, 11) == (fs(5), 5, fs(0, 1, 2, 3, 4))
        # ... and the rest {2, 3, 4, 5} over the piece {0}.
        g = path_graph(6, [5, 1, 2, 1, 1, 1])
        assert heaviest_piece(g, s, 1, 11) == (fs(2, 3, 4, 5), 5, fs(0, 1))

    def test_lone_vertex_rejected(self):
        with pytest.raises(ContractViolation):
            heaviest_piece(path_graph(3), fs(1), 1, 1)

    def test_work_is_bounded_by_the_finished_pieces(self):
        """Adjacency reads stay within a small multiple of deg(v) times the
        largest finished piece, however long the unwalked rest: at the
        centre of a spider with legs of 1, 1 and 2,000 vertices the two
        short legs finish in one round and the long one is never walked."""

        class CountingAdjacency(tuple):
            reads = 0

            def __getitem__(self, v):
                self.reads += 1
                return tuple.__getitem__(self, v)

        edges = [(0, 1), (0, 2), (0, 3)] + [(v, v + 1) for v in range(3, 2002)]
        g = WeightedGraph.from_edges(2003, edges)
        adjacency = CountingAdjacency(g.adjacency)
        g = WeightedGraph(g.n, adjacency, g.weights)
        s = frozenset(range(g.n))
        assert heaviest_piece(g, s, 0, g.n) == (s - fs(0, 1, 2), 2000, fs(0, 1, 2))
        degree, largest_finished = 3, 1
        assert adjacency.reads <= 1 + 2 * degree * largest_finished

    def test_matches_components(self):
        """H, w(H) and U agree with sorting `components(g, s - {v})`, for every
        v of random connected sets s, min(s) included, on stars, spiders,
        grids, trees and dense graphs."""
        rng = random.Random("heaviest-piece")
        ties = many = 0
        for family in ("star", "spider", "grid", "tree", "dense"):
            for _ in range(150):
                g = family_graph(rng, family)
                s = _random_connected_subset(g, rng)
                for v in sorted(s):
                    pieces = sort_classes(g, components(g, s - {v}))
                    heavy = pieces[-1]
                    got = heaviest_piece(g, s, v, g.weight(s))
                    assert got == (heavy, g.weight(heavy), s - heavy), (g.edges(), s, v)
                    many += len(pieces) >= 3
                    ties += len(pieces) >= 2 and g.weight(pieces[-2]) == g.weight(heavy)
        assert ties > 100 and many > 100
