import time

import pytest
from hypothesis import given, settings

from bcp.errors import ParseError
from bcp.instances import FAMILIES, generate, parse_instance, write_instance

from . import reference
from .conftest import connected_graphs, star_graph


P3_TEXT = """c tiny path
p bcp 3 2
v 0 1
v 1 1
v 2 1
e 0 1
e 1 2
"""


class TestParse:
    def test_path3(self):
        g = parse_instance(P3_TEXT)
        assert g.n == 3
        assert g.weights == (1, 1, 1)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_fractions_cleared_by_lcm(self):
        text = "p bcp 2 1\nv 0 1\nv 1 3/2\ne 0 1\n"
        g = parse_instance(text)
        assert g.weights == (2, 3)

    def test_mixed_denominators(self):
        text = "p bcp 3 2\nv 0 1/2\nv 1 1/3\nv 2 2\ne 0 1\ne 1 2\n"
        g = parse_instance(text)
        assert g.weights == (3, 2, 12)

    def test_loop_rejected_with_line(self):
        text = "p bcp 2 1\nv 0 1\nv 1 1\ne 0 0\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 4

    def test_duplicate_edge(self):
        text = "p bcp 2 2\nv 0 1\nv 1 1\ne 0 1\ne 1 0\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_disconnected(self):
        text = "p bcp 4 2\nv 0 1\nv 1 1\nv 2 1\nv 3 1\ne 0 1\ne 2 3\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_nonpositive_weight(self):
        text = "p bcp 2 1\nv 0 0\nv 1 1\ne 0 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_missing_weight(self):
        text = "p bcp 2 1\nv 0 1\ne 0 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_edge_count_mismatch(self):
        text = "p bcp 2 2\nv 0 1\nv 1 1\ne 0 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_unknown_line_kind(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("p bcp 2 1\nq nonsense\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("p bcp 2\n", "problem line must be", 1),
            ("p dimacs 2 1\n", "problem line must be", 1),
            ("p bcp two 1\n", "counts must be integers", 1),
            ("p bcp 2 1\nv 2 1\n", "vertex id 2 out of range", 2),
            ("p bcp 2 1\nv 0 1\nv 0 2\n", "duplicate weight for vertex 0", 3),
            ("p bcp 2 1\nv 0 1\nv 1 1\ne 0\n", "edge line must be", 4),
            ("p bcp 2 1\nv 0 1\nv 1 1\ne 0 one\n", "endpoints must be integers", 4),
            ("p bcp 2 1\nv 0 1\nv 1 1\ne 0 5\n", r"edge \(0,5\) out of range", 4),
            ("c no problem line\n", "missing problem line", None),
            ("v 0 1\np bcp 1 0\n", "vertex line before problem line", 1),
            ("e 0 1\np bcp 2 1\n", "edge line before problem line", 1),
            ("p bcp 2 1\nv x 1\n", "bad vertex id 'x'", 2),
        ],
        ids=["short-p", "bad-p", "count", "vertex-range", "duplicate-v", "short-e",
             "endpoint", "edge-range", "no-p", "v-before-p", "e-before-p", "vertex-id"],
    )
    def test_malformed_lines_name_their_line(self, text, message, line):
        with pytest.raises(ParseError, match=message) as exc:
            parse_instance(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "token, weights",
        [("1_000", (1000, 1)), ("+3", (3, 1)), ("3.0", (3, 1)), ("1/2", (1, 2)),
         ("007", (7, 1))],
    )
    def test_weight_tokens_accepted(self, token, weights):
        # Digit-only tokens take a fast int path; the rest still go through
        # Fraction, so the same tokens parse to the same weights.
        assert parse_instance(f"p bcp 2 1\nv 0 {token}\nv 1 1\ne 0 1\n").weights == weights

    @pytest.mark.parametrize(
        "token, message",
        [("0", "weight must be positive"), ("-1", "weight must be positive"),
         ("1/0", "bad weight")],
    )
    def test_weight_tokens_rejected(self, token, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_instance(f"p bcp 2 1\nv 0 {token}\nv 1 1\ne 0 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "token", ["1e1001", "1e-1000", "1e3000000", pytest.param("2" * 1001, id="1001-digits")]
    )
    def test_oversized_weights_rejected_unexpanded(self, token):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="bad weight") as exc:
            parse_instance(f"p bcp 2 1\nv 0 {token}\nv 1 1\ne 0 1\n")
        assert exc.value.line == 2
        assert time.perf_counter() - start < 0.05

    def test_oversized_common_denominator_rejected(self):
        weights = "".join(f"v {v} 1/{10**600 + v}\n" for v in range(2))
        with pytest.raises(ParseError, match="denominators"):
            parse_instance(f"p bcp 2 1\n{weights}e 0 1\n")

    def test_largest_weight_accepted(self):
        g = parse_instance("p bcp 2 1\nv 0 1e999\nv 1 5e998\ne 0 1\n")
        assert g.weights == (10**999, 5 * 10**998)


class TestRoundTrip:
    def test_parse_write_parse(self):
        g = star_graph(5, [2, 1, 3, 1, 4])
        text = write_instance(g)
        again = parse_instance(text)
        assert again == g
        assert write_instance(again) == text

    def test_canonical_fixed_point(self):
        messy = "c x\np bcp 3 2\nv 2 5\nv 0 1\nv 1 2\ne 1 2\ne 0 1\n"
        canon = write_instance(parse_instance(messy))
        assert canon == write_instance(parse_instance(canon))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_families_at_scale(self, family):
        g = generate(family, 2000, (1, 50), seed=5)
        assert parse_instance(write_instance(g)) == g

    @given(connected_graphs(min_n=1, max_n=12, max_weight=10**6))
    @settings(max_examples=60)
    def test_random_graphs(self, g):
        assert parse_instance(write_instance(g)) == g


class TestGenerate:
    def test_star(self):
        g = generate("star", 5)
        assert g.edges() == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_grid_2x3(self):
        g = generate("grid", 6)
        assert g.n == 6 and g.m == 7

    def test_deterministic(self):
        a = generate("random-tree", 8, (1, 9), seed=1)
        b = generate("random-tree", 8, (1, 9), seed=1)
        assert a == b
        c = generate("random-tree", 8, (1, 9), seed=2)
        assert a != c

    @pytest.mark.parametrize("n", [*range(3, 61), 500])
    def test_tree_plus_edges_matches_list_sampler(self, n):
        for seed in range(3):
            assert generate("tree-plus-edges", n, (1, 9), seed) == reference.tree_plus_edges(
                n, (1, 9), seed
            )

    def test_tree_plus_edges_has_cycles(self):
        g = generate("tree-plus-edges", 9, seed=3)
        assert g.m > g.n - 1

    def test_spider_shape(self):
        g = generate("spider", 7)
        assert g.adjacency[0] == (1, 2, 3)
        assert g.m == 6

    def test_weights_in_range(self):
        g = generate("random-tree", 10, (3, 5), seed=4)
        assert all(3 <= w <= 5 for w in g.weights)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            generate("hypercube", 8)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            generate("star", 2)
