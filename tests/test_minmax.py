import random

import pytest
from hypothesis import given, settings

import bcp.graph
import bcp.minmax
from bcp.errors import ContractViolation, InternalError
from bcp.graph import WeightedGraph, boundary_neighbors, is_connected
from bcp.instances import generate
from bcp.minmax import (
    BcpkResult,
    Certificate,
    initial_3partition,
    merge,
    minmax_bcpk,
    pull,
    pull_check,
    split_off_singletons,
    star_center_certificate,
)
from bcp.oracle import enumerate_connected_kpartitions, exact_minmax
from bcp.partition import order3, sort_classes, validate, w_plus

from .conftest import (
    connected_graphs,
    family_graph,
    grid_graph,
    path_graph,
    spider_graph,
    star_graph,
    triangle_graph,
)
from .reference import (
    all_connected_kpartitions,
    carried,
    merge_resummed,
    minmax_bcp3,
    oracle_pull_admissible,
    pull_check_components,
    pull_resummed,
    split_off_singletons_repicked,
)


def fs(*vs):
    return frozenset(vs)


class TestMerge:
    def test_p5_trace(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(1), fs(2, 3, 4)])
        assert merge(g, carried(g, p)) == (
            (fs(2), 1, fs(1, 3)), (fs(0, 1), 2, fs(2)), (fs(3, 4), 2, fs(2))
        )

    def test_non_adjacent_rejected(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        assert merge(g, carried(g, p)) is None

    def test_light_heavy_class_rejected(self):
        g = triangle_graph()
        p = order3(g, [fs(0), fs(1), fs(2)])
        with pytest.raises(ContractViolation):
            merge(g, carried(g, p))


class TestPullCheck:
    def test_p5_first_class(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        assert pull_check(g, carried(g, p), 1) == (fs(1), 1, fs(2, 3))

    def test_p5_second_class(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        assert pull_check(g, carried(g, p), 2) == (fs(3), 1, fs(1, 2))

    def test_absent_matches_oracle(self):
        g = star_graph(5)
        p = order3(g, [fs(3), fs(4), fs(0, 1, 2)])
        for i in (1, 2):
            assert pull_check(g, carried(g, p), i) is None
            assert oracle_pull_admissible(g, p, i) is None
            assert pull(g, carried(g, p), i) is None

    def test_bad_class_index(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        with pytest.raises(ContractViolation):
            pull_check(g, carried(g, p), 3)

    def test_light_heavy_class_rejected(self):
        g = path_graph(6)
        p = order3(g, [fs(0, 1), fs(2, 3), fs(4, 5)])
        with pytest.raises(ContractViolation, match=r"requires w\(V3\) > w\(G\)/2"):
            pull_check(g, carried(g, p), 1)


class TestPull:
    def test_p5_trace(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(4), fs(1, 2, 3)])
        assert pull(g, carried(g, p), 1) == (
            (fs(4), 1, fs(3)), (fs(0, 1), 2, fs(2)), (fs(2, 3), 2, fs(1, 4))
        )


class TestInitialPartition:
    def test_p5_peels_deepest_leaves(self):
        g = path_graph(5)
        assert initial_3partition(g) == (fs(3), fs(4), fs(0, 1, 2))

    def test_always_valid(self):
        for g in (path_graph(3), star_graph(6), triangle_graph(), spider_graph(3, 2)):
            assert validate(g, initial_3partition(g), 3) == []

    def test_too_small(self):
        g = path_graph(2)
        with pytest.raises(ContractViolation):
            initial_3partition(g)


class TestMinmaxBcp3:
    def test_p5(self):
        g = path_graph(5)
        p = minmax_bcp3(g)
        assert w_plus(g, p) == 2 == exact_minmax(g, 3)[0]

    def test_star(self):
        g = star_graph(5)
        p = minmax_bcp3(g)
        assert w_plus(g, p) == 3 == exact_minmax(g, 3)[0]

    def test_triangle_never_loops(self):
        g = triangle_graph()
        p = minmax_bcp3(g)
        assert w_plus(g, p) == 1

    def test_p6_reaches_equal_thirds(self):
        g = path_graph(6)
        p = minmax_bcp3(g)
        assert sorted(g.weight(c) for c in p) == [2, 2, 2]


class TestStarCertificate:
    def test_star_graph(self):
        g = star_graph(5)
        p = minmax_bcp3(g)
        cert = star_center_certificate(g, p)
        assert cert.u == 0
        assert cert.ell == 4

    def test_spider_center(self):
        g = spider_graph(3, 2, center_weight=10)
        p = minmax_bcp3(g)
        assert 2 * w_plus(g, p) > g.total_weight
        cert = star_center_certificate(g, p)
        assert cert.u == 0
        assert cert.ell == 3

    def test_heavy_stray_component_rejected(self):
        g = star_graph(4, [1, 1, 1, 5])
        p = (frozenset({1}), frozenset({2}), frozenset({0, 3}))
        with pytest.raises(ContractViolation, match="a stray component outweighs V1"):
            star_center_certificate(g, p)

    def test_stray_component_may_tie_v1(self):
        g = star_graph(4, [3, 1, 1, 1])
        p = (frozenset({1}), frozenset({2}), frozenset({0, 3}))
        cert = star_center_certificate(g, p)
        assert cert.u == 0
        assert cert.ell == 3

    def test_rejected_below_half(self):
        g = path_graph(6)
        p = minmax_bcp3(g)
        with pytest.raises(ContractViolation):
            star_center_certificate(g, p)

    # The certificate does not check that p is a partition, so the w(V1) <
    # w(G)/4 guard is reached only by an overlapping V3 and the
    # components guard by a disconnected V1.  No p reaches the guard on a
    # light center with three components: V3 lies in u and the stray s,
    # and w(u) + w(s) > w(V1) + w(V2) with 4 w(u) <= w(G) would need
    # w(V1) + w(V2) < 2 w(s), against w(s) <= w(V1) <= w(V2).
    @pytest.mark.parametrize(
        "g, p, message",
        [
            (path_graph(5), (fs(2, 3, 4), fs(0), fs(1)), "weight-ordered"),
            (path_graph(3, [1, 5, 1]), (fs(0), fs(2), fs(1)), r"\|V3\| >= 2"),
            (path_graph(5), (fs(0), fs(1), fs(2, 3, 4)), "must not be adjacent"),
            (path_graph(4), (fs(0), fs(3), fs(0, 1, 2, 3)), r"w\(V1\) < w\(G\)/4"),
            (path_graph(5), (fs(0), fs(4), fs(1, 2, 3)), "single shared contact vertex"),
            (star_graph(6, [20, 1, 1, 3, 1, 1]), (fs(1, 2), fs(3), fs(0, 4, 5)),
             "must be components of G-u"),
        ],
        ids=["unordered", "singleton-v3", "adjacent", "heavy-v1", "two-contacts", "not-a-component"],
    )
    def test_structure_mismatch_rejected(self, g, p, message):
        with pytest.raises(ContractViolation, match=message):
            star_center_certificate(g, p)


def check_star_structure(g, p, cert):
    """Re-assert every structural promise of a star certificate."""
    v1, v2, _ = p
    total = g.total_weight
    assert not boundary_neighbors(g, v1, v2), "V1 and V2 must not touch"
    assert v1 in cert.comps and v2 in cert.comps
    for c in cert.comps:
        if c not in (v1, v2):
            assert g.weight(c) <= g.weight(v1)
    assert 4 * g.weight(v1) < total
    if cert.ell == 3:
        assert 4 * g.weights[cert.u] > total
    weights = [g.weight(c) for c in cert.comps]
    assert weights == sorted(weights)


def test_star_certificate_structure_checks():
    for g in (star_graph(5), spider_graph(3, 2, center_weight=10), star_graph(7, [2, 1, 1, 3, 4, 1, 2])):
        p = minmax_bcp3(g)
        if 2 * w_plus(g, p) > g.total_weight and len(p[2]) >= 2:
            check_star_structure(g, p, star_center_certificate(g, p))


class TestSplitOffSingletons:
    def test_q_zero_is_identity(self):
        g = path_graph(5)
        p = (fs(0, 1), fs(2, 3, 4))
        assert split_off_singletons(g, p, 0) == p

    def test_path3_fully_shattered(self):
        g = path_graph(3)
        got = split_off_singletons(g, (fs(0, 1, 2),), 2)
        assert sorted(sorted(c) for c in got) == [[0], [1], [2]]

    def test_splits_heaviest(self):
        g = path_graph(5)
        got = split_off_singletons(g, (fs(0, 1), fs(2, 3, 4)), 1)
        assert sorted(len(c) for c in got) == [1, 2, 2]
        assert validate(g, got, 3) == []

    def test_never_raises_heaviest(self):
        g = star_graph(6, [1, 2, 3, 4, 5, 6])
        p = (frozenset(range(6)),)
        before = w_plus(g, p)
        for q in range(1, 6):
            got = split_off_singletons(g, p, q)
            assert validate(g, got, 1 + q) == []
            assert w_plus(g, got) <= before

    def test_overfull_rejected(self):
        g = path_graph(3)
        with pytest.raises(ContractViolation):
            split_off_singletons(g, (fs(0, 1, 2),), 3)

    def test_disconnected_class_rejected_when_first_picked(self):
        # {0, 2, 4} is disconnected in the path; it weighs 3 + 1 + 3 = 7
        # against {1, 3}'s 2 + 2 = 4, so the first cut picks it.
        g = path_graph(5, [3, 2, 1, 2, 3])
        with pytest.raises(ContractViolation):
            split_off_singletons(g, (fs(0, 2, 4), fs(1, 3)), 1)
        # Lighter than the connected class, it is reached only at the
        # second cut, as in the per-singleton reference.
        g = path_graph(5, [1, 9, 9, 9, 1])
        p = (fs(0, 4), fs(1, 2, 3))
        assert split_off_singletons(g, p, 1) == split_off_singletons_repicked(g, p, 1)
        with pytest.raises(ContractViolation):
            split_off_singletons(g, p, 3)
        with pytest.raises(ContractViolation):
            split_off_singletons_repicked(g, p, 3)

    def test_one_dfs_tree_per_split_class(self, monkeypatch):
        g = grid_graph(20, 20)
        calls = []
        dfs_tree = bcp.graph._dfs_tree

        def counted(*args):
            calls.append(args)
            return dfs_tree(*args)

        monkeypatch.setattr(bcp.graph, "_dfs_tree", counted)
        got = split_off_singletons(g, (frozenset(range(400)),), 150)
        assert len(got) == 151 and len(calls) == 1
        # Three row bands of the grid, each split at least once.
        calls.clear()
        p = tuple(frozenset(range(20 * lo, 20 * hi)) for lo, hi in ((0, 7), (7, 14), (14, 20)))
        got = split_off_singletons(g, p, 150)
        split = [c for c, before in zip(got, p) if c != before]
        assert len(split) == 3 and len(calls) <= len(split)


def _split_inputs(g):
    """Partitions to split off singletons from: the single class, every
    connected 2- and 3-partition for n <= 8, and min-max's star fan."""
    yield (frozenset(range(g.n)),)
    if g.n <= 8:
        for k in (2, 3):
            yield from all_connected_kpartitions(g, k)
    if g.n >= 3:
        p3 = minmax_bcp3(g)
        if 2 * w_plus(g, p3) > g.total_weight and len(p3[2]) >= 2:
            star = star_center_certificate(g, p3)
            yield (frozenset({star.u}),) + star.comps


def _assert_split_matches_reference(g):
    for p in _split_inputs(g):
        for q in range(g.n - len(p) + 1):
            assert split_off_singletons(g, p, q) == split_off_singletons_repicked(g, p, q)


@given(connected_graphs(min_n=1, max_n=8))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_split_off_singletons_matches_per_singleton_reference(g):
    _assert_split_matches_reference(g)


def test_split_off_singletons_matches_reference_on_grids_spiders_stars():
    rng = random.Random(0x5EED)
    graphs = []
    for rows, cols in ((1, 5), (2, 3), (2, 4), (3, 3), (4, 5)):
        graphs.append(grid_graph(rows, cols))
        graphs.append(grid_graph(rows, cols, [rng.randint(1, 9) for _ in range(rows * cols)]))
    for legs, leg_len in ((3, 1), (3, 2), (4, 3)):
        graphs.append(spider_graph(legs, leg_len))
        graphs.append(spider_graph(legs, leg_len, center_weight=rng.randint(1, 12)))
    for n in (4, 7, 12):
        graphs.append(star_graph(n))
        graphs.append(star_graph(n, [rng.randint(1, 9) for _ in range(n)]))
    for g in graphs:
        _assert_split_matches_reference(g)


class TestMinmaxBcpk:
    def test_star_k3_is_optimal(self):
        g = star_graph(5)
        result = minmax_bcpk(g, 3)
        assert result.certificate is Certificate.STAR_OPTIMAL
        assert sorted(g.weight(c) for c in result.classes) == [1, 1, 3]
        assert w_plus(g, result.classes) == 3 == exact_minmax(g, 3)[0]

    def test_p6_k3_ratio_half(self):
        g = path_graph(6)
        result = minmax_bcpk(g, 3)
        assert result.certificate is Certificate.RATIO_HALF_W
        assert sorted(len(c) for c in result.classes) == [2, 2, 2]
        assert w_plus(g, result.classes) == 2 == exact_minmax(g, 3)[0]

    def test_p6_k4_adds_singleton(self):
        g = path_graph(6)
        result = minmax_bcpk(g, 4)
        assert sorted(len(c) for c in result.classes) == [1, 1, 2, 2]
        assert w_plus(g, result.classes) == 2 == exact_minmax(g, 4)[0]

    def test_singleton_top_certificate(self):
        g = star_graph(4, [9, 1, 1, 1])
        result = minmax_bcpk(g, 3)
        assert result.certificate in (Certificate.SINGLETON_TOP, Certificate.STAR_OPTIMAL)
        assert w_plus(g, result.classes) == exact_minmax(g, 3)[0]

    def test_fan_case_when_too_few_components(self):
        # Spider with a heavy center: 3 components around the star center
        # but k=5 forces the singleton-fan branch, whose heaviest class is
        # the unavoidable center itself.
        g = spider_graph(3, 2, center_weight=10)
        result = minmax_bcpk(g, 5)
        assert validate(g, result.classes, 5) == []
        assert result.certificate is Certificate.SINGLETON_TOP
        assert w_plus(g, result.classes) == 10 == exact_minmax(g, 5)[0]

    def test_fan_case_light_center(self):
        g = spider_graph(5, 2, center_weight=1)  # 5 legs, W=11
        result = minmax_bcpk(g, 3)
        assert validate(g, result.classes, 3) == []
        assert 2 * w_plus(g, result.classes) <= 3 * exact_minmax(g, 3)[0]

    def test_k_out_of_range(self):
        g = path_graph(5)
        with pytest.raises(ContractViolation):
            minmax_bcpk(g, 2)
        with pytest.raises(ContractViolation):
            minmax_bcpk(g, 6)


def _certificate_consistent(g, result: BcpkResult) -> bool:
    w = w_plus(g, result.classes)
    if result.certificate is Certificate.RATIO_HALF_W:
        return 2 * w <= g.total_weight
    if result.certificate is Certificate.SINGLETON_TOP:
        heaviest = max(result.classes, key=lambda c: (g.weight(c), min(c)))
        return len(heaviest) == 1
    return result.star is not None


# Instances whose loop stalls around a star center with ell components, and
# the k > ell + 2 where the base ({u}, components of G - u) needs at least
# two singletons split off to reach k classes.
FAN_CASES = [
    ("random-tree", 7, (1, 1000), 3, [7]),
    ("random-tree", 9, (1, 1000), 1, [8, 9]),
    ("random-tree", 11, (1, 1), 2, [8, 9, 10, 11]),
    ("random-tree", 11, (1, 1000), 0, [8, 9, 10, 11]),
    ("random-tree", 12, (1, 1000), 5, [8, 9, 10, 11, 12]),
]


@pytest.mark.parametrize("family, n, weights, seed, ks", FAN_CASES)
def test_fan_with_two_or_more_singletons_is_k_half_approximate(family, n, weights, seed, ks):
    g = generate(family, n, weights, seed)
    star = minmax_bcpk(g, 3).star
    for k in ks:
        assert star.ell <= k - 3
        result = minmax_bcpk(g, k)
        assert validate(g, result.classes, k) == []
        assert result.star is None
        assert result.certificate in (Certificate.RATIO_HALF_W, Certificate.SINGLETON_TOP)
        assert _certificate_consistent(g, result)
        opt, _ = exact_minmax(g, k)
        assert opt <= w_plus(g, result.classes)
        assert 2 * w_plus(g, result.classes) <= k * opt


@given(connected_graphs(min_n=3, max_n=8))
@settings(max_examples=80)
def test_ratio_validity_and_progress(g):
    for k in (3, 4, 5):
        if k > g.n:
            continue
        result = minmax_bcpk(g, k)
        assert validate(g, result.classes, k) == []
        assert result.iterations <= g.total_weight
        assert _certificate_consistent(g, result)
        opt, _ = exact_minmax(g, k)
        assert 2 * w_plus(g, result.classes) <= k * opt


@given(connected_graphs(min_n=3, max_n=8))
@settings(max_examples=80)
def test_terminal_heavy_partition_is_optimal(g):
    p = minmax_bcp3(g)
    if 2 * w_plus(g, p) > g.total_weight:
        assert w_plus(g, p) == exact_minmax(g, 3)[0]


def members(state):
    return tuple(c for c, _, _ in state)


def check_move(g, p, moved):
    """A move that applies builds a valid ordered 3-partition, with its true
    class records, whose heaviest class is strictly lighter than p's; the
    moves themselves never validate."""
    if moved is not None:
        q = members(moved)
        assert validate(g, q, 3) == []
        assert q == sort_classes(g, q)
        assert moved == carried(g, q)
        assert g.weight(q[2]) < g.weight(p[2])
    return moved is not None


def test_pull_check_complete_against_oracle():
    rng = random.Random(7)
    checked = merges = pulls = 0
    while checked < 120:
        n = rng.randint(4, 7)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        present = {(min(u, v), max(u, v)) for u, v in edges}
        missing = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
        ]
        edges += rng.sample(missing, min(len(missing), rng.randint(0, 2)))
        from bcp.graph import WeightedGraph

        g = WeightedGraph.from_edges(n, edges, [rng.randint(1, 6) for _ in range(n)])
        partitions = list(enumerate_connected_kpartitions(g, 3))
        rng.shuffle(partitions)
        for p in partitions[:4]:
            p = order3(g, p)
            if 2 * g.weight(p[2]) <= g.total_weight:
                continue
            state = carried(g, p)
            merges += check_move(g, p, merge(g, state))
            for i in (1, 2):
                pulls += check_move(g, p, pull(g, state, i))
                found = pull_check(g, state, i)
                slow = oracle_pull_admissible(g, p, i)
                assert (found is None) == (slow is None)
                if found is not None:
                    fast, weight, rest = found
                    assert weight == g.weight(fast) and rest == p[2] - fast
                    assert fast < p[2]
                    assert is_connected(g, p[i - 1] | fast)
                    assert is_connected(g, p[2] - fast)
                    assert g.weight(p[i - 1] | fast) < g.weight(p[2])
                checked += 1
    assert merges and pulls


def test_broken_move_caught_once_per_solve(monkeypatch):
    """A move that breaks connectivity still raises, from the loop's one
    `order3` check on its terminal partition, as the solver's own fault."""
    g = path_graph(5)
    p = initial_3partition(g)
    assert merge(g, carried(g, p)) is not None
    monkeypatch.setattr("bcp.minmax.split_two", lambda g, s: (fs(0, 2), fs(1)))
    with pytest.raises(InternalError, match="order3.*disconnected"):
        minmax_bcpk(g, 3)


def _forget_a_boundary_vertex(state):
    r1, r2, (v3, w3, b3) = state
    return r1, r2, (v3, w3, b3 - {max(b3)})


def _overweigh_v1(state):
    (v1, w1, b1), r2, r3 = state
    return (v1, w1 + 1, b1), r2, r3


def _swap_light_classes(state):
    r1, r2, r3 = state
    return r2, r1, r3


@pytest.mark.parametrize(
    "fault",
    [_forget_a_boundary_vertex, _overweigh_v1, _swap_light_classes],
    ids=["boundary", "weight", "order"],
)
def test_drifted_record_caught_once_per_solve(monkeypatch, fault):
    """A pull whose records drift, in a boundary, a weight or their order,
    still builds valid partitions, so only the loop's terminal check, which
    rebuilds every record from scratch, can catch it."""
    real_pull = bcp.minmax.pull

    def faulty_pull(*args):
        moved = real_pull(*args)
        return None if moved is None else fault(moved)

    monkeypatch.setattr(bcp.minmax, "pull", faulty_pull)
    with pytest.raises(InternalError, match="drifted"):
        minmax_bcpk(generate("spider", 300), 3)


def test_move_that_keeps_the_heaviest_weight_is_an_internal_error(monkeypatch):
    """A merge that returns its input state applies but lowers nothing; the
    loop stops at once instead of counting it as a move."""
    monkeypatch.setattr(bcp.minmax, "merge", lambda g, state: state)
    with pytest.raises(InternalError, match="heaviest class weight did not decrease"):
        minmax_bcpk(path_graph(7), 3)


def _random_heavy_3partition(g, rng):
    """A connected 3-partition grown from three random seeds, the third
    growing fastest, in `sort_classes` order; None unless its heaviest class
    outweighs the other two."""
    classes = [{v} for v in rng.sample(range(g.n), 3)]
    free = set(range(g.n)) - set().union(*classes)
    while free:
        grow = [
            (c, sorted({y for x in cls for y in g.adjacency[x] if y in free}))
            for c, cls in enumerate(classes)
        ]
        grow = [(c, ys) for c, ys in grow if ys]
        c, ys = rng.choices(grow, weights=[1 + 5 * (c == 2) for c, _ in grow])[0]
        y = rng.choice(ys)
        classes[c].add(y)
        free.discard(y)
    p = sort_classes(g, map(frozenset, classes))
    return p if 2 * g.weight(p[2]) > g.total_weight else None


def _check_moves_against_reference(g, p):
    """Compare each move at p with its components-based, re-summing
    reference, and its records with theirs recomputed from scratch; returns
    the reference's next partition (or None)."""
    state = carried(g, p)
    expected = merge_resummed(g, p)
    got = merge(g, state)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got == carried(g, expected)
    step = expected
    for i in (1, 2):
        u = pull_check_components(g, p, i)
        expected = pull_resummed(g, p, i)
        found = pull_check(g, state, i)
        assert found == (None if u is None else (u, g.weight(u), p[2] - u))
        got = pull(g, state, i)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got == carried(g, expected)
        step = step or expected
    return step


@pytest.mark.parametrize("family", ["star", "spider", "grid", "tree", "sparse", "dense"])
def test_moves_match_components_reference(family):
    """merge, pull_check and pull, given the carried class records, equal
    the components-based moves on random heavy 3-partitions and along the
    whole improvement loop."""
    rng = random.Random(f"moves-{family}")
    states = hits = 0
    for _ in range(60):
        g = family_graph(rng, family)
        starts = [_random_heavy_3partition(g, rng) for _ in range(3)]
        starts.append(initial_3partition(g))
        for p in starts:
            while p is not None and 2 * g.weight(p[2]) > g.total_weight:
                step = _check_moves_against_reference(g, p)
                states += 1
                hits += step is not None
                p = step
    assert states > 100 and hits > 50


def test_unit_spider_3200():
    """A unit spider whose 532 moves each cut a few vertices off a V3 of
    thousands."""
    g = generate("spider", 3200)
    result = minmax_bcpk(g, 3)
    assert result.iterations == 532
    assert w_plus(g, result.classes) == 1600
    assert validate(g, result.classes, 3) == []


class CountingAdjacency(tuple):
    """An adjacency tuple that counts the lists read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def test_one_pull_reads_what_it_moves():
    """One pull reads O(|U| + |B(Vi)| + |B(V3)|) adjacency lists, however
    large Vi: here Vi is a leg of 2,000 vertices with B(Vi) = {0}, and the
    pull moves the centre and a 3-vertex leg into it.  `heaviest_piece`
    reads at most 1 + 2 deg(v) |U| lists, and the two boundary updates read
    those of B(Vi) & U, of v, and of B(V3) twice."""
    legs = [range(1, 2001), range(2001, 4002), range(4002, 4005), range(4005, 4008)]
    edges = [(v - 1 if v > leg[0] else 0, v) for leg in legs for v in leg]
    weights = [1] * 4008
    weights[4002:4005] = [5000] * 3
    g = WeightedGraph.from_edges(4008, edges, weights)
    p = order3(g, [fs(*legs[0]), fs(*legs[1]), fs(0, *legs[2], *legs[3])])
    state = carried(g, p)
    adjacency = CountingAdjacency(g.adjacency)
    counted = WeightedGraph(g.n, adjacency, g.weights)
    moved = pull(counted, state, 1)

    u = fs(0, *legs[3])
    q = members(moved)
    assert q == (p[1], p[0] | u, fs(*legs[2]))
    assert moved == carried(g, q)
    (_, _, b1), _, (_, _, b3) = state
    assert b1 == fs(0) and b3 == fs(1, 2001)
    bound = (1 + 2 * len(g.adjacency[0]) * len(u)) + len(b1) + 1 + 2 * len(b3)
    assert adjacency.reads <= bound < 2000


def test_start_records_read_only_the_light_classes():
    """The records built from scratch, at the loop's start and its terminal
    check, read the adjacency of V1 and V2 once each and none of V3's: here
    V3 is a path of 2,000 vertices between two singleton light classes."""
    g = path_graph(2002)
    p = order3(g, [fs(0), fs(2001), fs(*range(1, 2001))])
    adjacency = CountingAdjacency(g.adjacency)
    state = bcp.minmax._records(WeightedGraph(g.n, adjacency, g.weights), p)
    assert state == carried(g, p)
    assert adjacency.reads <= len(p[0]) + len(p[1])
