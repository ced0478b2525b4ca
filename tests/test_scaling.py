import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from bcp.errors import InputError
from bcp.fpt import solve_fpt_maxmin
from bcp.graph import WeightedGraph
from bcp.instances import FAMILIES, generate
from bcp.minmax import Certificate, minmax_bcpk
from bcp.oracle import exact_maxmin, exact_minmax
from bcp.partition import sort_classes, validate, w_plus
from bcp.scaling import eps_minmax_bcpk, scale

from .conftest import connected_graphs, path_graph, star_graph


def four_vertex_graph(weights):
    return WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights)


class TestScale:
    def test_minmax_example(self):
        g = four_vertex_graph([100, 40, 25, 13])
        assert Fraction(1, 2) * max(g.weights) / g.n == Fraction(25, 2)  # lambda
        assert scale(g, Fraction(1, 2)).weights == (8, 4, 2, 2)

    def test_unit_weights_scale_uniformly(self):
        g = path_graph(5)
        assert scale(g, Fraction(1, 3)).weights == (15,) * 5  # ceil(n/eps)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InputError):
            scale(path_graph(3), Fraction(0))
        with pytest.raises(InputError):
            scale(path_graph(3), Fraction(-1, 2))

    def test_scaled_graph_keeps_topology(self):
        g = four_vertex_graph([100, 40, 25, 13])
        scaled = scale(g, Fraction(1, 2))
        assert scaled.edges() == g.edges()
        assert scaled.weights == (8, 4, 2, 2)


@given(connected_graphs(min_n=2, max_n=8, max_weight=10**6))
@settings(max_examples=60)
def test_sandwich_and_size_bound(g):
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(2)):
        lam = eps * max(g.weights) / g.n
        scaled = scale(g, eps)
        for w, w_hat in zip(g.weights, scaled.weights):
            assert Fraction(w) / lam <= w_hat <= Fraction(w) / lam + 1
            assert w_hat >= 1
            assert w_hat == math.ceil(Fraction(w) / lam)
        assert scaled.total_weight <= Fraction(g.n * g.n, eps) + g.n


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

    def test_star_certificate_is_not_claimed(self):
        # The scaled run ends on a star certificate, but under the input's
        # weights its partition is not optimal.
        g = generate("star", 9, (1, 1000), 2)
        result = eps_minmax_bcpk(g, 3, Fraction(4))
        assert w_plus(g, result.classes) == 3417
        assert exact_minmax(g, 3)[0] == 3209
        assert result.certificate is Certificate.SCALED
        assert result.star is None

    def test_ratio_half_w_is_read_under_input_weights(self):
        g = generate("random-tree", 10, (1, 10**6), 3)
        result = eps_minmax_bcpk(g, 3, Fraction(8))
        assert w_plus(g, result.classes) == 2826405
        assert 2 * 2826405 > g.total_weight
        assert result.certificate is Certificate.SCALED
        assert result.classes == sort_classes(g, result.classes)


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
        if result.certificate is Certificate.RATIO_HALF_W:
            assert 2 * w_plus(g, result.classes) <= g.total_weight
        assert result.star is None


def test_multiplying_every_weight_by_c_multiplies_only_the_value():
    """Every decision of the solvers compares weights, so multiplying each
    weight by c keeps the min-max loop's classes, certificate and moves, the
    scaled loop's classes and certificate, the oracles' witnesses and, at
    uniform weight c, the FPT search's classes, nodes and cuts; exact values
    scale by c.  No optimum is needed, so this runs up to n = 400."""
    searched = 0
    for family, n, weight_range in product(FAMILIES, (9, 16, 80, 400), ((1, 1), (1, 9), (1, 1000))):
        g = generate(family, n, weight_range, 1)
        for k in (3, 5, 16):
            if k > n:
                continue
            plain = minmax_bcpk(g, k)
            eps = eps_minmax_bcpk(g, k, Fraction(1, 2))
            exact = [exact_minmax(g, k), exact_maxmin(g, k)] if n <= 10 else []
            fpt = solve_fpt_maxmin(g, k) if n <= 16 and weight_range == (1, 1) else None
            for c in (2, 7):
                h = g.with_weights([c * w for w in g.weights])
                got = minmax_bcpk(h, k)
                assert (got.classes, got.certificate, got.iterations) == (
                    plain.classes, plain.certificate, plain.iterations
                )
                got = eps_minmax_bcpk(h, k, Fraction(1, 2))
                assert (got.classes, got.certificate) == (eps.classes, eps.certificate)
                for (value, witness), solve in zip(exact, (exact_minmax, exact_maxmin)):
                    assert solve(h, k) == (c * value, witness)
                if fpt is not None:
                    got = solve_fpt_maxmin(h, k)
                    assert (got.value, got.classes, got.nodes, got.cuts_added) == (
                        c * fpt.value, fpt.classes, fpt.nodes, fpt.cuts_added
                    )
                    searched += got.nodes > 0
    # The relation also covers FPT solves that search, not only tree splits.
    assert searched >= 6
