import random
import time
from collections import Counter
from itertools import product

import pytest

import bcp.fpt
from bcp.errors import BudgetExceeded, ContractViolation, InputError, InternalError
from bcp.fpt import (
    CutConstraint,
    FptModel,
    _distribute,
    _max_flow,
    build_hypergraph,
    decompose,
    greedy_vertex_cover,
    reconstruct,
    separate,
    solve_fpt_maxmin,
)
from bcp.graph import WeightedGraph
from bcp.instances import generate
from bcp.oracle import enumerate_connected_kpartitions, exact_maxmin
from bcp.partition import validate

from .conftest import cycle_graph, grid_graph, path_graph, random_connected_graph, star_graph
from .reference import (
    ModelCandidate,
    check_base,
    class_size,
    classes_of,
    cut_holds,
    distribute_product,
    encode,
    matching_cover,
    max_flow_network,
    model_order,
    reach_hyperedges,
)


# The one message of a solver answer that is not a connected k-partition,
# whether it came from the tree split or from the search.
NOT_CONNECTED = r"^answer is not a connected partition: class \d+ \(\[.*\]\) is disconnected"


def fs(*vs):
    return frozenset(vs)


def ladder(m):
    """The 2 x m grid and one side of its bipartition as the cover."""
    cover = [r * m + c for r in range(2) for c in range(m) if (r + c) % 2 == 1]
    return grid_graph(2, m), cover


def scrambled_ladder(m, seed):
    """`ladder(m)` under a seeded vertex permutation: the same graph and
    cover, but G's DFS tree from vertex 0 differs, and at the seeds used
    here `split_at_least` misses n // k, so the search runs."""
    g, cover = ladder(m)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return WeightedGraph.from_edges(g.n, edges), [perm[v] for v in cover]


def hub_graph():
    """Vertex 0 bridges three cover vertices; balance fights connectivity."""
    return WeightedGraph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4)])


class TestDecompose:
    def test_p4(self):
        dec = decompose(path_graph(4), [1, 2])
        assert dec.cover == (1, 2)
        assert dec.stable == (0, 3)
        assert dec.classes_by_neighborhood == {fs(1): (0,), fs(2): (3,)}
        assert dec.set_masks == (0b01, 0b10)
        assert dec.cover_nbr == (0b10, 0b01)

    def test_c4(self):
        dec = decompose(cycle_graph(4), [0, 2])
        assert dec.classes_by_neighborhood == {fs(0, 2): (1, 3)}

    def test_star(self):
        dec = decompose(star_graph(4), [0])
        assert dec.classes_by_neighborhood == {fs(0): (1, 2, 3)}

    def test_bad_cover_rejected(self):
        with pytest.raises(InputError):
            decompose(path_graph(4), [0, 3])

    def test_greedy_cover_is_a_cover(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 12)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            g = WeightedGraph.from_edges(n, edges)
            cover = greedy_vertex_cover(g)
            assert all(u in cover or v in cover for u, v in g.edges())

    def test_greedy_cover_drops_redundant_endpoints(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(2, 16)
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n * (n - 1) // 2))
            cover = greedy_vertex_cover(g)
            assert all(u in cover or v in cover for u, v in g.edges())
            assert cover <= matching_cover(g)
            assert all(not cover.issuperset(g.adjacency[v]) for v in cover)

    def test_groups_ascend_by_sorted_members(self):
        for g, cover in _explicit_cover_instances(random.Random(12), 40):
            keys = [sorted(s) for s in decompose(g, cover).classes_by_neighborhood]
            assert keys == sorted(keys)

    def test_ladder_without_cover_uses_one_side(self):
        g, side = ladder(12)
        assert greedy_vertex_cover(g) == frozenset(side)
        result = solve_fpt_maxmin(g, 3)
        assert result.model.dec.cover == tuple(side)
        assert result.value == 8


class TestBuildHypergraph:
    def test_p5_empty_separator(self):
        dec = decompose(path_graph(5), [1, 3])
        h = build_hypergraph(dec, frozenset())
        assert h.nodes == (fs(1), fs(3))
        edges = dict(h.edges)
        assert edges[fs(1)] == fs(0)
        assert edges[fs(1, 3)] == fs(0, 1)
        assert edges[fs(3)] == fs(1)

    def test_single_node_when_z_is_almost_everything(self):
        dec = decompose(path_graph(5), [1, 3])
        h = build_hypergraph(dec, fs(1))
        assert h.nodes == (fs(3),)
        assert all(nodes <= fs(0) for _, nodes in h.edges)

    def test_no_stable_vertices_means_no_edges(self):
        g = cycle_graph(3)
        dec = decompose(g, [0, 1, 2])
        h = build_hypergraph(dec, fs(0))
        assert h.edges == ()

    def test_full_separator_rejected(self):
        dec = decompose(path_graph(5), [1, 3])
        with pytest.raises(ContractViolation):
            build_hypergraph(dec, fs(1, 3))


class TestSeparate:
    # P5 with cover (1, 3): bit 0 is vertex 1, bit 1 is vertex 3, and the
    # groups are I({1}) = (0,), I({1, 3}) = (2,), I({3}) = (4,).
    def test_emits_bridge_cut(self):
        dec = decompose(path_graph(5), [1, 3])
        assert dec.set_masks == (0b01, 0b11, 0b10)
        [cut] = separate(dec, [0b11, 0], [[1, 0], [0, 1], [1, 0]])
        assert cut == CutConstraint(class_index=0, need=0b11, avoid=0, groups=(1,))
        assert cut.render(dec) == "x[1,0] + x[3,0] - y[{1, 3},0] <= 1"
        assert not cut_holds(FptModel(dec, 2), cut, [fs(0, 1, 3, 4), fs(2)])

    def test_connected_candidate_yields_nothing(self):
        dec = decompose(path_graph(5), [1, 3])
        assert separate(dec, [0b01, 0b10], [[1, 0], [1, 0], [0, 1]]) == []

    def test_bridge_present_yields_nothing(self):
        dec = decompose(path_graph(5), [1, 3])
        assert separate(dec, [0b11, 0], [[1, 0], [1, 0], [1, 0]]) == []

    @pytest.mark.parametrize(
        "x_change, y_change",
        [
            ({1: 1}, {}),  # u leaves class 0
            ({5: 1}, {}),  # v leaves class 0
            ({3: 0}, {}),  # the Z vertex joins class 0
            ({}, {fs(1, 3): (1, 0)}),  # F's group gives class 0 a unit
        ],
    )
    def test_cut_satisfied_once_it_no_longer_binds_or_is_met(self, x_change, y_change):
        # P7 with cover {1, 3, 5}: class 0 = {0, 1} + {5, 6} is cut apart by
        # class 1's vertex 3, so unlike the P5 bridge cut this one has Z = {3}.
        dec = decompose(path_graph(7), [1, 3, 5])
        model = FptModel(dec, 2)
        x_class = {1: 0, 3: 1, 5: 0}
        y = {fs(1): (1, 0), fs(1, 3): (0, 1), fs(3, 5): (0, 1), fs(5): (1, 0)}
        [cut] = separate(dec, [0b101, 0b010], [y[s] for s in dec.classes_by_neighborhood])
        assert cut == CutConstraint(class_index=0, need=0b101, avoid=0b010, groups=(1,))
        assert not cut_holds(model, cut, classes_of(model, ModelCandidate(x_class, y)))
        changed = ModelCandidate({**x_class, **x_change}, {**y, **y_change})
        assert cut_holds(model, cut, classes_of(model, changed))

    def test_class_of_one_stable_vertex_yields_nothing(self):
        dec = decompose(path_graph(5), [1, 3])
        assert separate(dec, [0b11, 0], [[1, 0], [1, 0], [0, 1]]) == []

    def test_v_is_the_lowest_cover_vertex_past_the_component(self):
        # P7 with cover {1, 3, 5} all in class 0, the stable vertices 2 and 4
        # elsewhere: u = 1 is alone, and v is 3, not 5.
        dec = decompose(path_graph(7), [1, 3, 5])
        [cut] = separate(dec, [0b111, 0], [[1, 0], [0, 1], [0, 1], [1, 0]])
        assert cut == CutConstraint(class_index=0, need=0b011, avoid=0, groups=(1,))
        assert cut.render(dec) == "x[1,0] + x[3,0] - y[{1, 3},0] <= 1"

    def test_groups_join_by_or_not_by_sum(self):
        # C6 with cover {0, 2, 4}: the groups {0, 2} and {0, 4} both give
        # class 0 a unit, so vertex 0's neighbour mask joins both of them.
        # Summed, 0b011 + 0b101 carries into 0b1000, past the cover, and
        # vertex 0 would reach neither 2 nor 4.
        dec = decompose(cycle_graph(6), [0, 2, 4])
        assert dec.set_masks == (0b011, 0b101, 0b110)
        assert separate(dec, [0b111, 0], [[1, 0], [1, 0], [0, 1]]) == []
        [cut] = separate(dec, [0b111, 0], [[0, 1], [1, 0], [0, 1]])
        assert cut == CutConstraint(class_index=0, need=0b011, avoid=0, groups=(0, 2))


class TestReconstruct:
    def test_c4_lowest_id_rule(self):
        dec = decompose(cycle_graph(4), [0, 2])
        assert reconstruct(dec, [0b01, 0b10], [[1, 1]]) == (fs(0, 1), fs(2, 3))

    def test_single_class(self):
        dec = decompose(path_graph(3), [1])
        assert reconstruct(dec, [0b1], [[2]]) == (fs(0, 1, 2),)

    def test_bad_totals_rejected(self):
        dec = decompose(cycle_graph(4), [0, 2])
        with pytest.raises(ContractViolation):
            reconstruct(dec, [0b01, 0b10], [[1, 0]])

    def test_disconnected_decode_returned_in_class_order(self):
        # Class 0 = {1, 3, 0, 4} is disconnected.  Decoding checks counts
        # only; connectivity is the solver's one check (TestSolve's
        # disconnected-answer tests).
        dec = decompose(path_graph(5), [1, 3])
        assert reconstruct(dec, [0b11, 0], [[1, 0], [0, 1], [1, 0]]) == (fs(0, 1, 3, 4), fs(2))

    @pytest.mark.parametrize(
        "class_masks, alloc, classes",
        [
            # Class 1 = {0, 4}: two stable vertices and no cover vertex.
            ([0b11, 0], [[0, 1], [1, 0], [0, 1]], (fs(1, 2, 3), fs(0, 4))),
            # Class 0 = {1, 0, 4}: 4 is cut off from the only cover vertex.
            ([0b01, 0b10], [[1, 0], [0, 1], [1, 0]], (fs(0, 1, 4), fs(2, 3))),
        ],
        ids=["pair", "cut"],
    )
    def test_disconnected_class_without_a_second_cover_vertex_decoded(
        self, class_masks, alloc, classes
    ):
        # The search never builds these (a unit goes only to a class holding
        # a vertex of its S), so separate does not look for them, and
        # reconstruct decodes them as given.
        dec = decompose(path_graph(5), [1, 3])
        assert reconstruct(dec, class_masks, alloc) == classes

    # separate reads the rows of the groups in the decomposition only, so
    # reconstruct is the one decoder that checks them.
    @pytest.mark.parametrize("decode", [reconstruct])
    @pytest.mark.parametrize(
        "y",
        [
            [[1, 0], [0, 1]],  # misses a group
            [[1, 0], [1, 0], [0, 1], [0, 0]],  # one row too many
            [[1, 0], [-1, 2], [0, 1]],  # a negative count
        ],
    )
    def test_counts_must_name_exactly_the_groups(self, decode, y):
        dec = decompose(path_graph(5), [1, 3])
        with pytest.raises(ContractViolation):
            decode(dec, [0b01, 0b10], y)


class TestEncode:
    def test_roundtrip_satisfies_base(self):
        g = cycle_graph(6)
        model = FptModel(dec=decompose(g, [0, 2, 4]), k=3)
        for p in enumerate_connected_kpartitions(g, 3):
            if all(c & fs(0, 2, 4) for c in p):
                candidate = encode(model, p)
                assert check_base(model, candidate) == []
                assert class_size(candidate, 0) == min(len(c) for c in p)

    def test_violations_reported(self):
        g = path_graph(4)
        model = FptModel(dec=decompose(g, [1, 2]), k=2)
        candidate = encode(model, [fs(0, 1), fs(2, 3)])
        candidate.y[fs(1)] = (0, 1)  # stable vertex 0 sent to the wrong side
        assert check_base(model, candidate)


class TestSolve:
    def test_p4_k2(self):
        result = solve_fpt_maxmin(path_graph(4), 2, [1, 2])
        assert result.value == 2
        assert result.classes == (fs(0, 1), fs(2, 3))

    def test_c4_k2(self):
        result = solve_fpt_maxmin(cycle_graph(4), 2, [0, 2])
        assert result.value == 2

    def test_star_k2_value_one(self):
        result = solve_fpt_maxmin(star_graph(4), 2, [0])
        assert result.value == 1
        assert validate(star_graph(4), result.classes, 2) == []

    def test_k_exceeding_cover(self):
        g = star_graph(6)
        result = solve_fpt_maxmin(g, 3, [0])
        assert result.value == 1
        assert validate(g, result.classes, 3) == []

    def test_hub_graph_fires_cuts(self):
        g = hub_graph()
        result = solve_fpt_maxmin(g, 2, [1, 2, 5])
        assert result.value == 2 == exact_maxmin(g, 2)[0]
        assert result.cuts_added >= 1
        assert validate(g, result.classes, 2) == []

    def test_rejects_weighted(self):
        g = path_graph(4, [1, 2, 1, 1])
        with pytest.raises(InputError):
            solve_fpt_maxmin(g, 2)

    def test_uniform_non_unit_weights_ok(self):
        g = path_graph(4, [3, 3, 3, 3])
        # Two vertices of weight 3 in the lightest class.
        assert solve_fpt_maxmin(g, 2, [1, 2]).value == 6

    def test_budget_honoured_inside_distribution(self):
        # Ladder 2x14 at k=4, relabelled so the tree split misses the cap,
        # spends its time inside _distribute, between two of the search's
        # every-256-nodes deadline checks, and runs past 20 s unbudgeted on
        # a 2-vCPU VM.
        g, cover = scrambled_ladder(14, 0)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            solve_fpt_maxmin(g, 4, cover, max_seconds=0.5)
        assert time.monotonic() - start < 2.0

    def test_zero_budget_stops_k_exceeding_cover(self):
        # The greedy cover of a star is its centre, so k=2 returns before
        # any search would read the clock.
        with pytest.raises(BudgetExceeded):
            solve_fpt_maxmin(star_graph(5), 2, max_seconds=0.0)

    @pytest.mark.parametrize("m, k", [(10, 4), (12, 3)])
    def test_ladder_reaches_cap(self, m, k):
        # Both once ran past 20 s inside _distribute; the optimum is n // k,
        # and the split of the ladder's DFS tree reaches it without a search.
        g, cover = ladder(m)
        result = solve_fpt_maxmin(g, k, cover, max_seconds=10)
        assert result.value == g.n // k
        assert result.nodes == 0
        assert validate(g, result.classes, k) == []

    @pytest.mark.parametrize(
        "g, cover, k, broken",
        [
            # k above the cover size: leaves 1 and 2 share a class.
            (star_graph(5), [0], 3, [fs(0), fs(1, 2), fs(3, 4)]),
            # The cap n // k = 5 of ladder 2x10 at k=4: 0 and 19 share one.
            (*ladder(10), 4, [fs(0, 19), fs(1, 2, 3, 4, 5), fs(6, 7, 8, 9), fs(*range(10, 19))]),
        ],
        ids=["k-above-cover", "cap"],
    )
    def test_disconnected_tree_split_is_an_internal_error(self, monkeypatch, g, cover, k, broken):
        monkeypatch.setattr(bcp.fpt, "split_at_least", lambda g, k, bound: broken)
        with pytest.raises(InternalError, match=NOT_CONNECTED):
            solve_fpt_maxmin(g, k, cover)

    def test_disconnected_search_witness_is_an_internal_error(self, monkeypatch):
        # With no cut ever found, the search keeps a disconnected witness;
        # the check that catches a bad tree split catches it too.
        monkeypatch.setattr(bcp.fpt, "separate", lambda dec, class_masks, alloc: [])
        with pytest.raises(InternalError, match=NOT_CONNECTED):
            solve_fpt_maxmin(generate("random-tree", 20, (1, 1), 2), 3)

    def test_witness_decoded_once(self, monkeypatch):
        # The search improves on this relabelled ladder 2x6 at k=3 three times.
        calls = []

        def counting(dec, class_masks, alloc):
            calls.append((class_masks, alloc))
            return reconstruct(dec, class_masks, alloc)

        monkeypatch.setattr(bcp.fpt, "reconstruct", counting)
        g, cover = scrambled_ladder(6, 3)
        result = solve_fpt_maxmin(g, 3, cover)
        assert len(calls) == 1
        assert result.value == 4

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            solve_fpt_maxmin(path_graph(4), 1)
        with pytest.raises(InputError):
            solve_fpt_maxmin(path_graph(4), 5)


class CountingRows(list):
    """An elig list that counts the rows read from it."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return list.__getitem__(self, j)

    def __iter__(self):
        return (self[j] for j in range(len(self)))


class TestMaxFlow:
    def test_matches_network_reference(self):
        """The flow-matrix Edmonds-Karp returns exactly the flows of the
        generic source/sink network, including None, both where the direct
        pass settles every demand, reading each row once, and where the
        search runs after it, reading more rows to list each class's
        senders."""
        rng = random.Random(17)
        seen = Counter()
        for _ in range(4000):
            m, k = rng.randint(0, 8), rng.randint(1, 5)
            supplies = [rng.choice((0, rng.randint(1, 9))) for _ in range(m)]
            demands = [rng.choice((0, rng.randint(1, 12))) for _ in range(k)]
            elig = [rng.sample(range(k), rng.choice((0, rng.randint(1, k)))) for _ in range(m)]
            rows = CountingRows(elig)
            got = _max_flow(supplies, demands, rows)
            assert got == max_flow_network(supplies, demands, elig)
            seen["feasible" if got is not None else "infeasible"] += 1
            seen["no demand"] += not any(demands)
            seen["idle group"] += 0 in supplies
            seen["ineligible group"] += [] in elig
            seen["direct pass alone"] += m > 0 and got is not None and rows.reads == m
            seen["search"] += rows.reads > m
        assert min(seen.values()) >= 100, seen

    def test_search_after_direct_pass_matches_network_reference(self):
        """Transports built feasible, demands summed from a hidden flow, which
        the direct pass often leaves short: there the search must reroute
        its pushes along back arcs and still return the reference network's
        flow."""
        rng = random.Random(29)
        searched = 0
        for _ in range(1000):
            m, k = rng.randint(2, 7), rng.randint(2, 5)
            elig = [sorted(rng.sample(range(k), rng.randint(1, k))) for _ in range(m)]
            hidden = [[rng.randint(0, 4) if i in row else 0 for i in range(k)] for row in elig]
            supplies = [sum(row) + rng.choice((0, 0, 1)) for row in hidden]
            demands = [sum(col) for col in zip(*hidden)]
            rows = CountingRows(elig)
            got = _max_flow(supplies, demands, rows)
            assert got is not None
            assert got == max_flow_network(supplies, demands, elig)
            searched += rows.reads > m
        assert searched >= 100

    def test_direct_pairs_read_each_row_once(self):
        """A transport that direct group -> class pushes settle completely
        reads each elig row once, not the m * k rows of listing every
        class's senders for a search."""
        m, k = 40, 5
        supplies, demands = [3] * m, [24] * k
        elig = [[(j + d) % k for d in range(k)] for j in range(m)]
        rows = CountingRows(elig)
        flow = _max_flow(supplies, demands, rows)
        assert flow == max_flow_network(supplies, demands, elig)
        assert [sum(row) for row in flow] == supplies
        assert rows.reads == m

    def test_distribute_solves_each_transport_once(self, monkeypatch):
        calls = []

        def recording(supplies, demands, elig):
            calls.append((tuple(supplies), tuple(demands)))
            return _max_flow(supplies, demands, elig)

        monkeypatch.setattr(bcp.fpt, "_max_flow", recording)
        # Probes 3 and 4 are feasible, 5 is not: the optimum 4 comes from a
        # probe that is not the last one.
        result = _distribute([3, 2, 4], [[0, 1], [1], [1, 2]], [1, 1, 1], [], 5, 2)
        assert result == (4, [[3, 0, 0], [0, 2, 0], [0, 1, 3]])
        assert calls == [((3, 2, 4), (2, 2, 2)), ((3, 2, 4), (3, 3, 3)), ((3, 2, 4), (4, 4, 4))]

    def test_distribute_without_feasible_probe(self):
        # Class 1 is eligible for no group, so every probe above 0 fails and
        # the distribution keeps the zero flow of the floor's probe at 0.
        assert _distribute([2], [[0]], [0, 0], [], 1, -1) == (0, [[2, 0]])


class TestDistribute:
    def test_deadline_checked_with_covers(self):
        with pytest.raises(BudgetExceeded):
            _distribute([2, 1], [[0, 1], [1]], [1, 1], [(1, [0, 1])], 2, -1, time.monotonic() - 1)

    def test_floor_is_a_strict_lower_bound(self):
        # The optimum is 4 (see test_distribute_solves_each_transport_once).
        counts, elig, bases = [3, 2, 4], [[0, 1], [1], [1, 2]], [1, 1, 1]
        assert _distribute(counts, elig, bases, [], 5, 4) is None
        assert _distribute(counts, elig, bases, [], 5, 3)[0] == 4

    def test_matches_product_reference(self):
        """Branching on the smallest unmet cover finds the same optimum as
        trying every choice of provider per cover, and its allocation is a
        valid one of that value, also where covers repeat or imply one
        another and reach the distribution unpruned."""
        rng = random.Random(0xD15)
        seen = Counter(dict.fromkeys(["unsatisfiable", "covers", "implied cover", "thin group"], 0))
        for _ in range(1500):
            m, k = rng.randint(1, 5), rng.randint(1, 4)
            counts = [rng.choice((0, 1, rng.randint(2, 6))) for _ in range(m)]
            elig = [sorted(rng.sample(range(k), rng.randint(1, k))) for _ in range(m)]
            bases = [rng.randint(0, 3) for _ in range(k)]
            covers = []
            for _ in range(rng.randint(0, 4)):
                i = rng.randrange(k)
                providers = [j for j in range(m) if i in elig[j]]
                size = rng.randint(min(1, len(providers)), len(providers))
                covers.append((i, rng.sample(providers, size)))
                if covers[-1][1] and rng.random() < 0.3:
                    # A repeat, or a superset that the first one implies.
                    covers.append((i, sorted(set(covers[-1][1]) | set(rng.sample(providers, 1)))))
            rng.shuffle(covers)
            cap = (sum(counts) + sum(bases)) // k
            expected = distribute_product(counts, elig, bases, covers, cap)
            got = _distribute(counts, elig, bases, covers, cap, -1)
            if expected is None:
                assert got is None
                seen["unsatisfiable"] += 1
                continue
            value, alloc = got
            assert value == expected[0]
            for j in range(m):
                assert sum(alloc[j]) == counts[j]
                assert all(alloc[j][i] == 0 for i in range(k) if i not in elig[j])
            assert all(any(alloc[j][i] for j in groups) for i, groups in covers)
            assert min(bases[i] + sum(row[i] for row in alloc) for i in range(k)) == value
            floor = rng.randint(0, cap)
            beat = _distribute(counts, elig, bases, covers, cap, floor)
            assert (beat[0] if beat else None) == (value if value > floor else None)
            seen["covers"] += bool(covers)
            seen["implied cover"] += any(
                a != b and i == c and set(groups) <= set(other)
                for a, (i, groups) in enumerate(covers)
                for b, (c, other) in enumerate(covers)
            )
            seen["thin group"] += 0 in counts or 1 in counts
        assert min(seen.values()) >= 100, seen

    def test_branches_on_the_smallest_unmet_cover(self, monkeypatch):
        """The root's one probe (cap_value is floor + 1) leaves both covers of
        class 1 unmet; the first forced unit, read off the second probe's
        supplies, comes from the one-group cover though it is listed second.
        A superset listed before its subset costs no probe beyond the subset
        alone; taking the first unmet cover would spend one more."""
        calls = []

        def recording(supplies, demands, elig):
            calls.append(tuple(supplies))
            return _max_flow(supplies, demands, elig)

        monkeypatch.setattr(bcp.fpt, "_max_flow", recording)
        counts, elig, bases = [1, 1, 1], [[0, 1]] * 3, [0, 5]
        assert _distribute(counts, elig, bases, [(1, [0, 1]), (1, [2])], 1, 0)[0] == 1
        assert calls[:2] == [(1, 1, 1), (1, 1, 0)]
        probes = []
        for covers in ([(1, [0, 1, 2]), (1, [2])], [(1, [2])]):
            calls.clear()
            assert _distribute(counts, elig, bases, covers, 1, 0)[0] == 1
            probes.append(len(calls))
        assert probes[0] <= probes[1]


def _cover_graph(rng, c, stable, groups):
    """A random tree on the cover 0..c-1 plus `groups` distinct
    neighbourhoods of 1-3 cover vertices, each shared by 1 to
    2 * stable // groups stable vertices."""
    edges = {(rng.randrange(v), v) for v in range(1, c)}
    hoods = set()
    while len(hoods) < groups:
        hoods.add(tuple(sorted(rng.sample(range(c), rng.randint(1, 3)))))
    v = c
    for hood in sorted(hoods):
        for _ in range(rng.randint(1, 2 * stable // groups)):
            edges.update((u, v) for u in hood)
            v += 1
    return WeightedGraph.from_edges(v, sorted(edges))


def _explicit_cover_instances(rng, count):
    """Random connected graphs built around a small known cover."""
    out = []
    while len(out) < count:
        cx = rng.randint(2, 4)
        ni = rng.randint(1, 6)
        n = cx + ni
        cover = list(range(cx))
        edges = set()
        for v in range(cx, n):
            for u in rng.sample(cover, rng.randint(1, cx)):
                edges.add((u, v))
        for u in range(cx):
            for v in range(u + 1, cx):
                if rng.random() < 0.4:
                    edges.add((u, v))
        try:
            g = WeightedGraph.from_edges(n, sorted(edges))
        except Exception:
            continue
        out.append((g, cover))
    return out


def test_matches_oracle_on_random_small_cover_graphs():
    rng = random.Random(99)
    for g, cover in _explicit_cover_instances(rng, 25):
        for k in range(2, min(g.n, len(cover) + 2) + 1):
            result = solve_fpt_maxmin(g, k, cover)
            expected, _ = exact_maxmin(g, k)
            assert result.value == expected, (g.edges(), cover, k)
            assert validate(g, result.classes, k) == []
            if k <= len(cover):
                assert all(c & frozenset(cover) for c in result.classes)


def test_matches_oracle_on_structured_families():
    cases = []
    for n in (4, 6, 8):
        cases.append((path_graph(n), [v for v in range(1, n, 2)]))
        cases.append((cycle_graph(n), [v for v in range(0, n, 2)]))
    cases.append((grid_graph(2, 3), [1, 3, 5]))  # one bipartition side
    cases.append((star_graph(7), [0]))
    for g, cover in cases:
        for k in (2, 3):
            if k > g.n:
                continue
            result = solve_fpt_maxmin(g, k, cover)
            expected, _ = exact_maxmin(g, k)
            assert result.value == expected


def test_value_is_a_weight_on_uniform_weights():
    # Every vertex weighs 3, so the value is three times the lightest class's
    # vertex count, both from the search and when k exceeds the cover.
    rng = random.Random(3)
    cases = [
        (path_graph(6), [1, 3, 5]),
        (cycle_graph(6), [0, 2, 4]),
        (grid_graph(2, 3), [1, 3, 5]),
        (star_graph(5), [0]),
        *_explicit_cover_instances(rng, 6),
    ]
    for unit, cover in cases:
        g = unit.with_weights([3] * unit.n)
        for k in range(2, min(g.n, len(cover) + 2) + 1):
            result = solve_fpt_maxmin(g, k, cover)
            assert result.value == exact_maxmin(g, k)[0], (g.edges(), cover, k)
            assert result.value == min(g.weight(c) for c in result.classes)


def test_separation_matches_hypergraph_reach_fixpoint():
    # The cover is independent, and each stable vertex sees one to three
    # cover vertices, so a class component often spans several H_Z nodes
    # (about a fifth of the compared cuts reach past u's own node).
    rng = random.Random(0x5E9)
    compared = 0
    while compared < 300:
        cx = rng.randint(3, 8)
        n = cx + rng.randint(cx, 3 * cx)
        edges = {(u, v) for v in range(cx, n) for u in rng.sample(range(cx), rng.randint(1, 3))}
        try:
            g = WeightedGraph.from_edges(n, sorted(edges))
        except InputError:
            continue
        dec = decompose(g, range(cx))
        k = rng.randint(2, 3)
        x_class = {v: rng.randrange(k) for v in range(cx)}
        alloc = []
        for s, members in dec.classes_by_neighborhood.items():
            counts = [0] * k
            eligible = sorted({x_class[v] for v in s})
            for _ in members:
                counts[rng.choice(eligible)] += 1
            alloc.append(counts)
        class_masks = [sum(1 << v for v in range(cx) if x_class[v] == i) for i in range(k)]
        for cut in separate(dec, class_masks, alloc):
            u = (cut.need & -cut.need).bit_length() - 1
            z = frozenset(v for v in range(cx) if cut.avoid >> v & 1)
            assert cut.groups == reach_hyperedges(dec, alloc, cut.class_index, u, z)
            compared += 1


def _all_distributions(model, x_class, k):
    """Exhaustive y completions of a fixed cover assignment."""
    dec = model.dec
    sets = list(dec.classes_by_neighborhood)
    per_set_choices = []
    for s in sets:
        members = dec.classes_by_neighborhood[s]
        elig = [i for i in range(k) if any(x_class.get(v) == i for v in s)]
        assignments = []
        for combo in product(elig, repeat=len(members)):
            counts = [0] * k
            for i in combo:
                counts[i] += 1
            assignments.append(tuple(counts))
        per_set_choices.append(sorted(set(assignments)))
    for chosen in product(*per_set_choices):
        yield {s: counts for s, counts in zip(sets, chosen)}


def test_distribution_is_optimal_against_exhaustive_search():
    """The flow-based count distribution must match brute force over all
    ways of handing out the stable vertices (ignoring connectivity)."""
    rng = random.Random(31)
    for g, cover in _explicit_cover_instances(rng, 8):
        k = 2
        if len(cover) < k:
            continue
        dec = decompose(g, cover)
        model = FptModel(dec=dec, k=k)
        half = len(cover) // 2
        x_class = {v: (0 if idx < half else 1) for idx, v in enumerate(dec.cover)}
        if len(set(x_class.values())) < k:
            continue
        best = -1
        for y in _all_distributions(model, x_class, k):
            candidate = ModelCandidate(x_class=dict(x_class), y=y)
            if check_base(model, candidate):
                continue
            best = max(best, min(class_size(candidate, i) for i in range(k)))
        sets = list(dec.classes_by_neighborhood)
        counts = [len(dec.classes_by_neighborhood[s]) for s in sets]
        elig = [
            [i for i in range(k) if any(x_class[v] == i for v in s)] for s in sets
        ]
        bases = [sum(1 for v in x_class.values() if v == i) for i in range(k)]
        res = _distribute(counts, elig, bases, [], g.n // k, -1)
        assert res is not None
        got = res[0]
        # check_base also enforces the size ordering, which brute force
        # inherits; compare pure max-min values.
        assert got == max(best, 0) or (best == -1 and got >= 0)


def test_transport_without_covers_ignores_class_labels():
    """A leaf's kind refutes it only if the transport without covers gives
    the same value, or None, however its classes are numbered."""
    rng = random.Random(0xC1A55)
    seen = Counter()
    for _ in range(1500):
        m, k = rng.randint(1, 6), rng.randint(2, 5)
        counts = [rng.randint(1, 8) for _ in range(m)]
        elig = [sorted(rng.sample(range(k), rng.randint(1, k))) for _ in range(m)]
        bases = [rng.randint(1, 4) for _ in range(k)]
        cap = (sum(counts) + sum(bases)) // k
        floor = rng.randint(-1, cap)
        label = list(range(k))
        rng.shuffle(label)
        relabelled_bases = [0] * k
        for i in range(k):
            relabelled_bases[label[i]] = bases[i]
        relabelled_elig = [sorted(label[i] for i in row) for row in elig]
        got = _distribute(counts, elig, bases, [], cap, floor)
        relabelled = _distribute(counts, relabelled_elig, relabelled_bases, [], cap, floor)
        if got is None:
            assert relabelled is None
            seen["none"] += 1
        else:
            assert relabelled[0] == got[0]
            seen["value"] += 1
    assert min(seen.values()) >= 100, seen


def test_each_kind_of_leaf_is_refuted_once(monkeypatch):
    """On a 9-vertex cover at k=5 the search visits all 18,540 nodes, and
    most leaves repeat a kind the transport already refuted: 1,130
    _distribute calls without the memo, 321 with it.  Value, nodes, cuts and
    witness are those of the search without the memo."""
    calls = []

    def recording(counts, elig, bases, covers, *rest):
        found = _distribute(counts, elig, bases, covers, *rest)
        groups = [sum(1 << j for j, row in enumerate(elig) if i in row) for i in range(len(bases))]
        calls.append((tuple(sorted(zip(bases, groups))), not covers and found is None))
        return found

    monkeypatch.setattr(bcp.fpt, "_distribute", recording)
    g = _cover_graph(random.Random(5), 9, 60, 4)
    result = solve_fpt_maxmin(g, 5, range(9))
    assert (result.value, result.nodes, result.cuts_added) == (6, 18540, 27)
    assert result.classes == (
        fs(5, 11, 12, 13, 14, 15),
        fs(7, 40, 41, 42, 43, 44),
        fs(0, 2, 3, 4, 9, 10, 39),
        fs(8, *range(30, 39)),
        fs(1, 6, *range(16, 30)),
    )
    refuted_at = [at for at, (_, refutes) in enumerate(calls) if refutes]
    assert refuted_at
    for at in refuted_at:
        assert calls[at][0] not in {kind for kind, _ in calls[at + 1 :]}
    assert len(calls) == 321


@pytest.mark.parametrize(
    "m, seed, k, pinned", [(8, 5, 3, (5, 707, 56)), (8, 3, 4, (4, 2435, 145))]
)
def test_search_that_reaches_the_cap_stops_on_its_bound(m, seed, k, pinned):
    """The DFS-tree split misses n // k on these relabelled ladders, so the
    search runs until a witness reaches the cap; from then on `upper_bound`,
    which starts from the cap, cuts every node.  Value, nodes and cuts are
    those of the search that also tested the cap directly."""
    g, cover = scrambled_ladder(m, seed)
    result = solve_fpt_maxmin(g, k, cover)
    assert result.value == g.n // k
    assert (result.value, result.nodes, result.cuts_added) == pinned


def test_relabelled_ladders_pin_value_and_nodes():
    """Of the relabelled ladders 2x8-2x10 at seeds 0-5 and k 3-4, these run
    a search; every other one is settled by the DFS-tree split at n // k.
    Value and node count do not depend on which optimal allocation the
    distribution returns, so they are pinned and the cut counts are not."""
    searched = {}
    for m, seed, k in product(range(8, 11), range(6), (3, 4)):
        g, cover = scrambled_ladder(m, seed)
        result = solve_fpt_maxmin(g, k, cover)
        assert validate(g, result.classes, k) == []
        if result.nodes:
            searched[m, seed, k] = (result.value, result.nodes)
        else:
            assert result.value == g.n // k
    assert searched == {
        (8, 0, 4): (4, 1210),
        (8, 3, 4): (4, 2435),
        (8, 4, 4): (4, 2435),
        (8, 5, 3): (5, 707),
        (9, 5, 3): (6, 1444),
        (10, 0, 4): (5, 25887),
        (10, 1, 4): (5, 4915),
    }


def test_all_oracle_encodings_satisfy_fired_cuts():
    g = hub_graph()
    result = solve_fpt_maxmin(g, 2, [1, 2, 5])
    assert result.model.cuts
    model = result.model
    for p in enumerate_connected_kpartitions(g, 2):
        classes = model_order(p)
        assert all(cut_holds(model, cut, classes) for cut in model.cuts)


def test_cut_count_is_the_dumped_pool():
    for g, cover, k in [(hub_graph(), [1, 2, 5], 2), (*scrambled_ladder(10, 1), 4)]:
        result = solve_fpt_maxmin(g, k, cover)
        assert result.cuts_added == len(result.model.cuts) >= 1
        assert f"cut pool ({result.cuts_added} cuts):" in result.model.dump().splitlines()


def test_pool_keeps_each_cuts_masks():
    """Each pooled cut's need mask holds two cover positions, its avoid mask
    none of them, and the leaf's mask test binds exactly when the rendered
    inequality fails under zero stable counts."""
    rng = random.Random(0xC07)
    seen = Counter()
    for g, cover, k in [
        (hub_graph(), [1, 2, 5], 2), (*scrambled_ladder(6, 3), 3), (*scrambled_ladder(8, 5), 3)
    ]:
        result = solve_fpt_maxmin(g, k, cover)
        model = result.model
        assert model.cuts
        xs = model.dec.cover
        assignments = [{v: rng.randrange(k) for v in xs} for _ in range(50)]
        for cut in model.cuts:
            i, need, avoid, groups = cut
            assert bin(need).count("1") == 2 and not need & avoid
            assert list(groups) == sorted(set(groups))
            for x_class in assignments:
                cm = sum(1 << p for p, v in enumerate(xs) if x_class[v] == i)
                binds = cm & (need | avoid) == need
                # Classes of cover vertices only: every y term is zero.
                classes = [frozenset(v for v in xs if x_class[v] == c) for c in range(k)]
                assert binds == (not cut_holds(model, cut, classes))
                seen[binds] += 1
    assert min(seen.values()) >= 50, seen


def test_leaf_covers_list_only_eligible_groups(monkeypatch):
    # On a relabelled ladder 2x10 at k=4 a binding cut's F often holds
    # groups that touch only cover vertices now outside the cut's class; no
    # unit of theirs can reach the class, so the leaf leaves them out of its
    # cover.
    seen = Counter()

    def recording(counts, elig, bases, covers, *rest):
        for i, groups in covers:
            assert groups and all(i in elig[j] for j in groups)
        seen["covers"] += len(covers)
        return _distribute(counts, elig, bases, covers, *rest)

    monkeypatch.setattr(bcp.fpt, "_distribute", recording)
    g, cover = scrambled_ladder(10, 1)
    assert solve_fpt_maxmin(g, 4, cover).value == 5
    assert seen["covers"] >= 100, seen


def test_model_dump_mentions_cuts():
    g = hub_graph()
    result = solve_fpt_maxmin(g, 2, [1, 2, 5])
    text = result.model.dump()
    assert "cut pool" in text
    assert "x[" in text and "y[" in text
