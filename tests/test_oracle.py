import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings

from bcp.errors import BudgetExceeded, ContractViolation
from bcp.graph import is_connected
from bcp.instances import FAMILIES, generate
import bcp.oracle
from bcp.oracle import (
    MAX_VERTICES,
    _search,
    enumerate_connected_kpartitions,
    exact_maxmin,
    exact_minmax,
)
from bcp.partition import order3, validate

from .conftest import (
    connected_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    triangle_graph,
)
from .reference import (
    all_connected_kpartitions,
    exhaustive_optimum,
    oracle_pull_admissible,
    w_minus,
)


def fs(*vs):
    return frozenset(vs)


class TestEnumeration:
    def test_path3_two_partitions(self):
        got = list(enumerate_connected_kpartitions(path_graph(3), 2))
        as_sets = {frozenset(p) for p in got}
        assert as_sets == {
            frozenset({fs(0), fs(1, 2)}),
            frozenset({fs(0, 1), fs(2)}),
        }

    def test_triangle_all_singletons(self):
        got = list(enumerate_connected_kpartitions(triangle_graph(), 3))
        assert got == [(fs(0), fs(1), fs(2))]

    def test_path3_k3_forced(self):
        got = list(enumerate_connected_kpartitions(path_graph(3), 3))
        assert got == [(fs(0), fs(1), fs(2))]

    def test_every_yield_is_valid_and_unique(self):
        g = cycle_graph(6)
        seen = set()
        for p in enumerate_connected_kpartitions(g, 3):
            assert validate(g, p, 3) == []
            key = frozenset(p)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_path_count_matches_edge_choices(self, n):
        # Cutting k-1 of the n-1 path edges is the only way to split a path.
        g = path_graph(n)
        for k in range(1, n + 1):
            count = sum(1 for _ in enumerate_connected_kpartitions(g, k))
            assert count == comb(n - 1, k - 1)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle_and_star_counts(self, n):
        # A cycle splits by cutting k of its n edges (k >= 2); a star keeps
        # its centre in one class, and k - 1 leaves stand alone.
        for k in range(2, n + 1):
            cycle = enumerate_connected_kpartitions(cycle_graph(n), k)
            star = enumerate_connected_kpartitions(star_graph(n), k)
            assert sum(1 for _ in cycle) == comb(n, k)
            assert sum(1 for _ in star) == comb(n - 1, k - 1)

    def test_vertex_budget(self):
        g = path_graph(MAX_VERTICES + 1)
        with pytest.raises(BudgetExceeded):
            list(enumerate_connected_kpartitions(g, 2))

    def test_partition_budget(self, monkeypatch):
        monkeypatch.setattr(bcp.oracle, "MAX_PARTITIONS", 3)
        g = path_graph(8)
        with pytest.raises(BudgetExceeded):
            list(enumerate_connected_kpartitions(g, 3))

    def test_time_budget(self):
        g = cycle_graph(12)
        with pytest.raises(BudgetExceeded):
            for _ in range(5):  # a few passes to outlast the zero budget
                list(enumerate_connected_kpartitions(g, 4, max_seconds=0.0))

    def test_k_out_of_range(self):
        with pytest.raises(ContractViolation):
            list(enumerate_connected_kpartitions(path_graph(3), 4))


@pytest.mark.parametrize(
    "search",
    [
        lambda g: list(enumerate_connected_kpartitions(g, 2, max_seconds=0.0)),
        lambda g: exact_minmax(g, 2, max_seconds=0.0),
        lambda g: exact_maxmin(g, 2, max_seconds=0.0),
    ],
    ids=["enumerate", "exact_minmax", "exact_maxmin"],
)
def test_zero_budget_stops_a_small_search(search):
    # Five vertices make far fewer search nodes than the clock's stride.
    with pytest.raises(BudgetExceeded):
        search(path_graph(5))


class TestExactValues:
    def test_p5_minmax_k3(self):
        assert exact_minmax(path_graph(5), 3)[0] == 2

    def test_star_minmax_k3(self):
        assert exact_minmax(star_graph(5), 3)[0] == 3

    def test_k1_is_total_weight(self):
        g = path_graph(4, [2, 3, 4, 5])
        value, witness = exact_minmax(g, 1)
        assert value == 14 and witness == (fs(0, 1, 2, 3),)

    def test_p4_maxmin_k2(self):
        value, witness = exact_maxmin(path_graph(4), 2)
        assert value == 2
        assert frozenset(witness) == {fs(0, 1), fs(2, 3)}

    def test_tie_goes_to_the_smallest_restricted_growth_string(self):
        # Both splits of the unit P3 weigh 2 at the heaviest class: labels
        # 0,0,1 come before 0,1,1, although {0} < {0,1} as sorted classes.
        assert exact_minmax(path_graph(3), 2) == (2, (fs(0, 1), fs(2)))

    def test_c4_maxmin_k2(self):
        assert exact_maxmin(cycle_graph(4), 2)[0] == 2

    def test_k_equals_n_is_min_weight(self):
        g = path_graph(4, [2, 3, 4, 5])
        assert exact_maxmin(g, 4)[0] == 2

    def test_witnesses_are_valid(self):
        g = cycle_graph(5, [3, 1, 4, 1, 5])
        for k in (2, 3, 4):
            _, witness = exact_minmax(g, k)
            assert validate(g, witness, k) == []
            _, witness = exact_maxmin(g, k)
            assert validate(g, witness, k) == []


def _vertex_cap_solves(family):
    """Each solve of the vertex-cap grid: seeds 0 and 1, weights 1 and 1-9,
    k 3 and 4, both objectives."""
    for seed in (0, 1):
        for weights in ((1, 1), (1, 9)):
            g = generate(family, MAX_VERTICES, weights, seed)
            for k in (3, 4):
                for solve, objective in ((exact_minmax, max), (exact_maxmin, min)):
                    yield g, k, solve, objective


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_at_the_vertex_cap_solves_inside_two_seconds(family):
    # A search past the budget raises BudgetExceeded instead of returning.
    for g, k, solve, objective in _vertex_cap_solves(family):
        value, witness = solve(g, k, max_seconds=2.0)
        assert validate(g, witness, k) == []
        assert value == objective(g.weight(c) for c in witness)


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_memory_does_not_grow_as_two_to_the_n(family):
    # A table indexed by class mask would take 2^16 bytes = 64 KiB alone.
    for g, k, solve, _ in _vertex_cap_solves(family):
        tracemalloc.start()
        try:
            solve(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 1024


@pytest.mark.parametrize("max_weight", [1, 9, 1000], ids=["1:1", "1:9", "1:1000"])
def test_bounded_optimum_matches_exhaustive(max_weight):
    # The bounded search cuts every branch that cannot beat its incumbent,
    # ties included, so the value is the optimum and the witness the first
    # optimum the search reaches: the smallest restricted-growth string.
    rng = random.Random(f"oracle-bound:{max_weight}")
    for n in range(2, 11):
        for _ in range(6):
            g = random_connected_graph(rng, n, max_weight)
            for k in range(2, min(5, n) + 1):
                assert exact_minmax(g, k) == exhaustive_optimum(g, k, max)
                assert exact_maxmin(g, k) == exhaustive_optimum(g, k, min)


def test_window_yields_exactly_the_partitions_inside_it():
    # Against every restricted-growth string: the window [0, hi] keeps the
    # partitions with no class heavier than hi, [lo, w(G)] those with no
    # class lighter than lo, and each yield carries its class weights.
    rng = random.Random("oracle-window")
    for n in range(2, 9):
        for _ in range(4):
            g = random_connected_graph(rng, n, 9)
            total = g.total_weight
            for k in range(2, min(4, n) + 1):
                every = all_connected_kpartitions(g, k)
                assert sum(1 for _ in enumerate_connected_kpartitions(g, k)) == len(every)
                heaviest = sorted({max(g.weight(c) for c in p) for p in every})
                lightest = sorted({min(g.weight(c) for c in p) for p in every})
                windows = [(0, hi) for hi in rng.sample(heaviest, min(3, len(heaviest)))]
                windows += [(lo, total) for lo in rng.sample(lightest, min(3, len(lightest)))]
                windows += [(0, heaviest[0] - 1), (lightest[-1] + 1, total), (0, total)]
                for lo, hi in windows:
                    got = list(_search(g, k, None, [lo, hi]))
                    want = {
                        frozenset(p) for p in every
                        if all(lo <= g.weight(c) <= hi for c in p)
                    }
                    assert len(got) == len(want)
                    assert {frozenset(p) for _, p in got} == want
                    assert all(w == tuple(g.weight(c) for c in p) for w, p in got)


class CountingWindow(list):
    """A search window that counts the nodes reading it: each node unpacks
    it exactly once."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize(
    "family, k, nodes",
    [("grid", 3, (5432, 488, 713)), ("tree-plus-edges", 3, (1082, 163, 234)),
     ("random-tree", 4, (983, 130, 160)), ("spider", 2, (119, 88, 94)),
     ("star", 3, (285, 92, 47)), ("tree-plus-edges", 5, (6242, 118, 396)),
     ("grid", 5, (26372, 478, 1473))],
)
def test_window_cuts_pin_node_counts(family, k, nodes):
    # Outputs cannot show a lost cut, only the work can: nodes visited for
    # the windows [0, w(G)], [0, min-max optimum] and [max-min optimum, w(G)].
    g = generate(family, 12, (1, 9), 1)
    windows = [
        CountingWindow([0, g.total_weight]),
        CountingWindow([0, exact_minmax(g, k)[0]]),
        CountingWindow([exact_maxmin(g, k)[0], g.total_weight]),
    ]
    for window in windows:
        for _ in _search(g, k, None, window):
            pass
    assert tuple(w.reads for w in windows) == nodes


@given(connected_graphs(min_n=2, max_n=7))
@settings(max_examples=60)
def test_minmax_and_maxmin_agree_for_k2(g):
    minmax_value, minmax_witness = exact_minmax(g, 2)
    maxmin_value, _ = exact_maxmin(g, 2)
    assert w_minus(g, minmax_witness) == maxmin_value
    assert minmax_value + maxmin_value == g.total_weight


class TestOraclePullAdmissible:
    def test_finds_a_set_on_p5(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        u = oracle_pull_admissible(g, p, 1)
        assert u is not None
        assert is_connected(g, p[0] | u) and is_connected(g, p[2] - u)
        assert g.weight(p[0] | u) < g.weight(p[2])

    def test_absent_at_terminal_star_partition(self):
        g = star_graph(5)
        p = order3(g, [fs(3), fs(4), fs(0, 1, 2)])
        assert oracle_pull_admissible(g, p, 1) is None
        assert oracle_pull_admissible(g, p, 2) is None

    def test_singleton_heavy_class_has_no_subsets(self):
        g = path_graph(3, [1, 1, 9])
        p = order3(g, [fs(0), fs(1), fs(2)])
        assert oracle_pull_admissible(g, p, 1) is None
        assert oracle_pull_admissible(g, p, 2) is None

    def test_budget(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        with pytest.raises(BudgetExceeded):
            oracle_pull_admissible(g, p, 1, max_subset_base=2)
