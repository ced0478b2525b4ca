"""Acceptance suite: every criterion at its stated tolerance.

All comparisons are exact (integers and fractions); run with -s to see one
PASS line per criterion.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from bcp.cli import run_cli
from bcp.fpt import FptResult, solve_fpt_maxmin
from bcp.graph import WeightedGraph, is_connected
from bcp.instances import write_instance
from bcp.minmax import (
    BcpkResult,
    Certificate,
    minmax_bcpk,
    pull_check,
    star_center_certificate,
)
from bcp.oracle import enumerate_connected_kpartitions, exact_maxmin, exact_minmax
from bcp.partition import (
    cut_vertex_bound,
    order3,
    validate,
    w_plus,
)
from bcp.scaling import eps_minmax_bcpk, scale

from .atlas import weighted_atlas
from .conftest import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from .reference import (
    carried,
    cut_holds,
    minmax_bcp3,
    model_order,
    oracle_pull_admissible,
    star_of,
)

KS = (3, 4, 5)


@dataclass
class MinmaxRun:
    graph: WeightedGraph
    k: int
    result: BcpkResult
    opt: int


@dataclass
class FptRun:
    graph: WeightedGraph
    cover: list
    k: int
    result: FptResult
    opt: int


def _suite1_graphs():
    rng = random.Random(20260808)
    graphs = []
    for n in range(3, 7):
        graphs.extend(weighted_atlas(n, rng))
    for n in (7, 8):
        for _ in range(930):
            graphs.append(random_connected_graph(rng, n))
    return graphs


@pytest.fixture(scope="module")
def suite1():
    runs = []
    terminal3 = []
    for g in _suite1_graphs():
        p3 = minmax_bcp3(g)
        opt3 = None
        for k in KS:
            if k > g.n:
                continue
            opt, _ = exact_minmax(g, k)
            if k == 3:
                opt3 = opt
            runs.append(MinmaxRun(g, k, minmax_bcpk(g, k), opt))
        terminal3.append((g, p3, opt3))
    return runs, terminal3


def test_criterion_01_ratio_bound(suite1):
    runs, _ = suite1
    assert len({id(r.graph) for r in runs}) >= 2000
    for r in runs:
        assert validate(r.graph, r.result.classes, r.k) == []
        got = w_plus(r.graph, r.result.classes)
        assert 2 * got <= r.k * r.opt, (
            r.graph.edges(), r.graph.weights, r.k, got, r.opt
        )
    print(f"\n[acceptance] criterion 1 (k/2 ratio on {len(runs)} runs): PASS")


def test_criterion_02_heavy_terminal_is_optimal(suite1):
    _, terminal3 = suite1
    checked = 0
    for g, p3, opt3 in terminal3:
        if opt3 is None:
            continue
        top = w_plus(g, p3)
        if 2 * top > g.total_weight:
            assert top == opt3, (g.edges(), g.weights)
            checked += 1
    assert checked > 0
    print(f"\n[acceptance] criterion 2 (terminal above W/2 optimal, {checked} cases): PASS")


def test_criterion_03_star_certificate_matches_bound(suite1):
    runs, _ = suite1
    checked = 0
    for r in runs:
        if r.result.certificate is not Certificate.STAR_OPTIMAL:
            continue
        star = r.result.star
        assert star is not None and star.ell >= r.k - 1
        core = next(c for c in r.result.classes if star.u in c)
        got = w_plus(r.graph, r.result.classes)
        if r.graph.weight(core) == got:
            fresh = star_of(r.graph, star.u)  # G - u walked again, independently
            assert got == cut_vertex_bound(r.graph, r.k, star) == cut_vertex_bound(
                r.graph, r.k, fresh) == r.opt
            checked += 1
    assert checked > 0
    print(f"\n[acceptance] criterion 3 (cut-vertex bound tight, {checked} cases): PASS")


def test_criterion_04_pull_check_complete():
    rng = random.Random(404404)
    triples = 0
    while triples < 500:
        g = random_connected_graph(rng, rng.randint(4, 8))
        partitions = list(enumerate_connected_kpartitions(g, 3))
        rng.shuffle(partitions)
        for p in partitions[:6]:
            p = order3(g, p)
            if 2 * g.weight(p[2]) <= g.total_weight:
                continue
            for i in (1, 2):
                found = pull_check(g, carried(g, p), i)
                fast = None if found is None else found[0]
                slow = oracle_pull_admissible(g, p, i)
                assert (fast is None) == (slow is None), (g.edges(), p, i)
                for u in (fast, slow):
                    if u is None:
                        continue
                    assert u and u < p[2]
                    assert is_connected(g, p[i - 1] | u)
                    assert is_connected(g, p[2] - u)
                    assert g.weight(p[i - 1] | u) < g.weight(p[2])
                triples += 1
    print(f"\n[acceptance] criterion 4 (pull completeness, {triples} triples): PASS")


def test_criterion_05_scaling_ratio(suite1):
    runs, _ = suite1
    rng = random.Random(515151)
    reweighted = {}
    checked = 0
    for r in runs:
        key = id(r.graph)
        if key not in reweighted:
            weights = [rng.randint(1, 10**9) for _ in range(r.graph.n)]
            reweighted[key] = r.graph.with_weights(weights)
        g = reweighted[key]
        opt, _ = exact_minmax(g, r.k)
        for eps_p in (Fraction(1, 10), Fraction(1, 2)):
            eps = eps_p / Fraction(r.k, 2)
            assert scale(g, eps).total_weight <= Fraction(g.n * g.n, eps) + g.n
            result = eps_minmax_bcpk(g, r.k, eps_p)
            assert validate(g, result.classes, r.k) == []
            got = Fraction(w_plus(g, result.classes))
            assert got <= (Fraction(r.k, 2) + eps_p) * opt, (
                g.edges(), g.weights, r.k, eps_p
            )
            checked += 1
    print(f"\n[acceptance] criterion 5 (scaled ratio, {checked} runs): PASS")


def _cycle_cover(n):
    return list(range(0, 2 * ((n + 1) // 2), 2))


def _grid2_cover(m):
    return [r * m + c for r in range(2) for c in range(m) if (r + c) % 2 == 1]


def _suite6_instances():
    rng = random.Random(606060)
    out = []
    for n in range(3, 13):
        out.append((path_graph(n), list(range(1, n, 2))))
        out.append((cycle_graph(n), _cycle_cover(n)))
        out.append((star_graph(n), [0]))
    for m in range(2, 7):
        out.append((grid_graph(2, m), _grid2_cover(m)))
    while len(out) < 300:
        cx = rng.randint(2, 6)
        ni = rng.randint(1, min(12 - cx, 8 if cx <= 4 else 6))
        n = cx + ni
        edges = set()
        for v in range(cx, n):
            degree = rng.randint(1, 2 if cx >= 5 else min(3, cx))
            for u in rng.sample(range(cx), degree):
                edges.add((u, v))
        for u in range(cx):
            for v in range(u + 1, cx):
                if rng.random() < 0.35:
                    edges.add((u, v))
        try:
            g = WeightedGraph.from_edges(n, sorted(edges))
        except Exception:
            continue
        out.append((g, list(range(cx))))
    return out


@pytest.fixture(scope="module")
def suite6():
    runs = []
    for g, cover in _suite6_instances():
        for k in range(2, min(g.n, len(cover) + 2) + 1):
            result = solve_fpt_maxmin(g, k, cover)
            opt, _ = exact_maxmin(g, k)
            runs.append(FptRun(g, cover, k, result, opt))
    return runs


def test_criterion_06_fpt_exactness(suite6):
    assert len({id(r.graph) for r in suite6}) >= 300
    for r in suite6:
        assert r.result.value == r.opt, (r.graph.edges(), r.cover, r.k)
        assert validate(r.graph, r.result.classes, r.k) == []
        if r.k <= len(r.cover):
            cover = frozenset(r.cover)
            assert all(c & cover for c in r.result.classes)
    print(f"\n[acceptance] criterion 6 (fpt exactness, {len(suite6)} runs): PASS")


def test_criterion_06_certified_classes_hold_cover_vertices(suite6):
    # A solve that the DFS-tree split settles searches no node.  At a cap of
    # two or more vertices each class holds an edge, hence a cover vertex,
    # the shape every search witness has.
    certified = [r for r in suite6 if r.k <= len(r.cover) and r.result.nodes == 0]
    assert len(certified) >= 100
    for r in certified:
        assert r.result.value == r.graph.n // r.k >= 2
        assert all(c & frozenset(r.cover) for c in r.result.classes)


def test_criterion_07_cut_validity(suite6):
    cuts_checked = 0
    for r in suite6:
        if not r.result.model.cuts:
            continue
        model = r.result.model
        for p in enumerate_connected_kpartitions(r.graph, r.k):
            classes = model_order(p)
            bad = [cut for cut in model.cuts if not cut_holds(model, cut, classes)]
            assert bad == [], (r.graph.edges(), r.k, bad[0].render(model.dec) if bad else "")
        cuts_checked += len(model.cuts)
    assert cuts_checked > 0
    print(f"\n[acceptance] criterion 7 (cut validity, {cuts_checked} cuts): PASS")


def test_criterion_08_monotone_progress(suite1):
    runs, _ = suite1
    for r in runs:
        assert r.result.iterations <= r.graph.total_weight
    print(f"\n[acceptance] criterion 8 (iteration bound on {len(runs)} runs): PASS")


def test_criterion_09_star_certificate_structure(suite1):
    _, terminal3 = suite1
    checked = 0
    for g, p3, _ in terminal3:
        if 2 * w_plus(g, p3) <= g.total_weight or len(p3[2]) < 2:
            continue
        cert = star_center_certificate(g, p3)
        v1, v2, _ = p3
        total = g.total_weight
        assert v1 in cert.comps and v2 in cert.comps
        assert all(
            g.weight(c) <= g.weight(v1) for c in cert.comps if c not in (v1, v2)
        )
        assert 4 * g.weight(v1) < total
        weights = [g.weight(c) for c in cert.comps]
        assert weights == sorted(weights)
        if cert.ell == 3:
            assert 4 * g.weights[cert.u] > total
        checked += 1
    assert checked > 0
    print(f"\n[acceptance] criterion 9 (star structure, {checked} certificates): PASS")


def test_criterion_10_cli_fixed_points(tmp_path, capsys):
    star = tmp_path / "star5.bcp"
    star.write_text(write_instance(star_graph(5)))
    p5 = tmp_path / "p5.bcp"
    p5.write_text(write_instance(path_graph(5)))
    p4 = tmp_path / "p4.bcp"
    p4.write_text(write_instance(path_graph(4)))

    assert run_cli(["solve", str(star), "--k", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "value: 3" in out and "certificate: StarOptimal" in out

    assert run_cli(["solve", str(p5), "--k", "3"]) == 0
    assert "value: 2" in capsys.readouterr().out.splitlines()

    assert run_cli(["exact", str(p4), "--objective", "maxmin", "--k", "2"]) == 0
    assert "value: 2" in capsys.readouterr().out.splitlines()

    assert run_cli(["fpt-maxmin", str(p4), "--k", "2", "--cover", "1,2"]) == 0
    assert "value: 2" in capsys.readouterr().out.splitlines()
    print("\n[acceptance] criterion 10 (CLI fixed points): PASS")
