from fractions import Fraction

import pytest
from hypothesis import given

from bcp.errors import ContractViolation
from bcp.oracle import enumerate_connected_kpartitions, exact_minmax
from bcp.partition import (
    average_weight_bound,
    cut_vertex_bound,
    order3,
    validate,
    w_plus,
)

from .conftest import connected_graphs, path_graph, star_graph
from .reference import star_of, w_minus


def fs(*vs):
    return frozenset(vs)


class TestValidate:
    def test_valid_partition(self):
        assert validate(path_graph(3), [fs(0, 1), fs(2)], 2) == []

    def test_disconnected_class(self):
        report = validate(path_graph(3), [fs(0, 2), fs(1)], 2)
        assert any("disconnected" in item for item in report)

    def test_uncovered_vertex(self):
        report = validate(path_graph(3), [fs(0), fs(1)], 2)
        assert any("uncovered" in item for item in report)

    def test_wrong_count_empty_and_overlap(self):
        report = validate(path_graph(3), [fs(0, 1), fs(), fs(1, 2)], 2)
        assert any("expected 2 classes" in item for item in report)
        assert any("empty" in item for item in report)
        assert any("overlaps" in item for item in report)

    def test_unknown_vertex_keeps_its_known_members_covered(self):
        report = validate(star_graph(5), [fs(0, 1, 99), fs(2), fs(3), fs(4)], 4)
        assert report == ["class 0 has unknown vertices [99]"]

    def test_unknown_vertex_class_still_counts_for_overlaps(self):
        report = validate(star_graph(5), [fs(0, 1, 99), fs(0, 2), fs(3), fs(4)], 4)
        assert report == [
            "class 0 has unknown vertices [99]",
            "class 1 overlaps earlier classes on [0]",
        ]


class TestOrder3:
    def test_sorts_by_weight(self):
        g = path_graph(6, [5, 2, 3, 2, 3, 5])
        p = order3(g, [fs(0, 1), fs(2, 3), fs(4, 5)])  # weights 7, 5, 8
        assert [g.weight(c) for c in p] == [5, 7, 8]

    def test_tie_breaks_by_min_id(self):
        g = path_graph(6, [1, 1, 1, 1, 1, 5])
        p = order3(g, [fs(4, 5), fs(2, 3), fs(0, 1)])  # weights 6, 2, 2
        assert p == (fs(0, 1), fs(2, 3), fs(4, 5))

    def test_idempotent(self):
        g = path_graph(5)
        p = order3(g, [fs(0), fs(1, 2), fs(3, 4)])
        assert order3(g, p) == p

    def test_rejects_invalid(self):
        with pytest.raises(ContractViolation):
            order3(path_graph(3), [fs(0, 2), fs(1), fs()])


class TestAverageWeightBound:
    def test_fraction_not_rounded(self):
        g = path_graph(5)
        assert average_weight_bound(g, 3) == Fraction(5, 3)

    def test_star_oracle_respects_bound(self):
        g = star_graph(5)
        assert average_weight_bound(g, 3) == Fraction(5, 3)
        assert exact_minmax(g, 3)[0] == 3

    def test_exact_division(self):
        g = path_graph(6)
        assert average_weight_bound(g, 3) == 2

    def test_k_out_of_range(self):
        with pytest.raises(ContractViolation):
            average_weight_bound(path_graph(3), 0)


class TestCutVertexBound:
    def test_star_center(self):
        g = star_graph(5)
        assert cut_vertex_bound(g, 3, star_of(g, 0)) == 3
        assert exact_minmax(g, 3)[0] == 3

    def test_path_empty_component_sum(self):
        g = path_graph(3)
        assert cut_vertex_bound(g, 3, star_of(g, 1)) == 1

    def test_weighted_star(self):
        g = star_graph(5, [1, 1, 2, 3, 4])
        assert cut_vertex_bound(g, 3, star_of(g, 0)) == 1 + 1 + 2

    def test_non_cut_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ContractViolation):
            cut_vertex_bound(g, 3, star_of(g, 0))


@given(connected_graphs(min_n=3, max_n=8))
def test_every_partition_brackets_the_average(g):
    for k in (2, 3):
        if k > g.n:
            continue
        avg = average_weight_bound(g, k)
        count = 0
        for p in enumerate_connected_kpartitions(g, k):
            assert w_minus(g, p) <= avg <= w_plus(g, p)
            count += 1
            if count >= 50:
                break


@given(connected_graphs(min_n=3, max_n=7))
def test_bounds_never_exceed_optimum(g):
    for k in (2, 3):
        opt, _ = exact_minmax(g, k)
        assert average_weight_bound(g, k) <= opt
        for u in range(g.n):
            try:
                bound = cut_vertex_bound(g, k, star_of(g, u))
            except ContractViolation:
                continue
            assert bound <= opt
