from fractions import Fraction

import pytest
from hypothesis import given, settings

from bcp.errors import InputError
from bcp.graph import WeightedGraph
from bcp.minmax import minmax_bcpk
from bcp.oracle import exact_minmax
from bcp.partition import validate, w_plus
from bcp.scaling import eps_minmax_bcpk, scale

from .conftest import connected_graphs, path_graph, star_graph


def four_vertex_graph(weights):
    return WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights)


class TestScale:
    def test_minmax_example(self):
        g = four_vertex_graph([100, 40, 25, 13])
        inst = scale(g, Fraction(1, 2))
        assert inst.theta == 100
        assert inst.lam == Fraction(25, 2)
        assert inst.scaled_weights == (8, 4, 2, 2)

    def test_unit_weights_scale_uniformly(self):
        g = path_graph(5)
        inst = scale(g, Fraction(1, 3))
        assert inst.scaled_weights == (15,) * 5  # ceil(n/eps)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InputError):
            scale(path_graph(3), Fraction(0))
        with pytest.raises(InputError):
            scale(path_graph(3), Fraction(-1, 2))

    def test_scaled_graph_keeps_topology(self):
        g = four_vertex_graph([100, 40, 25, 13])
        scaled = scale(g, Fraction(1, 2)).graph()
        assert scaled.edges() == g.edges()
        assert scaled.weights == (8, 4, 2, 2)


@given(connected_graphs(min_n=2, max_n=8, max_weight=10**6))
@settings(max_examples=60)
def test_sandwich_and_size_bound(g):
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(2)):
        inst = scale(g, eps)
        for w, w_hat in zip(g.weights, inst.scaled_weights):
            assert Fraction(w) / inst.lam <= w_hat <= Fraction(w) / inst.lam + 1
            assert w_hat >= 1
        assert sum(inst.scaled_weights) <= Fraction(g.n * g.n, eps) + g.n


class TestEpsMinmax:
    def test_unit_weights_match_unscaled_run(self):
        # Uniform weights scale to a uniform constant, preserving every
        # comparison the solver makes.
        g = path_graph(7)
        plain = minmax_bcpk(g, 3)
        scaled = eps_minmax_bcpk(g, 3, Fraction(1, 2))
        assert scaled.classes == plain.classes
        assert scaled.certificate == plain.certificate

    def test_heavy_star(self):
        g = star_graph(5, [10**6, 1, 1, 1, 1])
        result = eps_minmax_bcpk(g, 3, Fraction(1, 2))
        assert validate(g, result.classes, 3) == []
        opt, _ = exact_minmax(g, 3)
        # value <= (3/2 + 1/2) * opt, compared exactly; here it is optimal:
        # the center class must swallow two leaves.
        assert w_plus(g, result.classes) * 2 <= 4 * opt
        center_class = next(c for c in result.classes if 0 in c)
        assert len(center_class) == 3
        assert w_plus(g, result.classes) == opt == 10**6 + 2

    def test_big_weight_path(self):
        g = WeightedGraph.from_edges(
            6,
            [(v, v + 1) for v in range(5)],
            [1, 10**9, 1, 1, 10**9, 1],
        )
        result = eps_minmax_bcpk(g, 3, Fraction(1, 10))
        opt, _ = exact_minmax(g, 3)
        assert w_plus(g, result.classes) * 10 <= 16 * opt
        assert validate(g, result.classes, 3) == []

    def test_deterministic(self):
        g = star_graph(7, [3, 1, 4, 1, 5, 9, 2])
        first = eps_minmax_bcpk(g, 4, Fraction(1, 10))
        second = eps_minmax_bcpk(g, 4, Fraction(1, 10))
        assert first.classes == second.classes

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            eps_minmax_bcpk(path_graph(5), 3, Fraction(-1))


@given(connected_graphs(min_n=3, max_n=7, max_weight=10**5))
@settings(max_examples=40)
def test_eps_ratio_against_oracle(g):
    for k, eps_p in ((3, Fraction(1, 2)), (4, Fraction(1, 10))):
        if k > g.n:
            continue
        result = eps_minmax_bcpk(g, k, eps_p)
        assert validate(g, result.classes, k) == []
        opt, _ = exact_minmax(g, k)
        bound = (Fraction(k, 2) + eps_p) * opt
        assert Fraction(w_plus(g, result.classes)) <= bound

