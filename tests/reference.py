"""Brute-force references the tests compare the solvers against.

Slow on purpose: each checks a definition directly instead of the fast
path the package takes.
"""

import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from bcp.errors import BudgetExceeded, ContractViolation
from bcp.fpt import (
    CutConstraint,
    FptModel,
    VertexCoverDecomposition,
    _max_flow,
    build_hypergraph,
)
from bcp.graph import (
    VertexSet,
    WeightedGraph,
    boundary_neighbors,
    components,
    is_connected,
    non_cut_vertex,
    split_two,
)
from bcp.minmax import _improvement_loop, initial_3partition
from bcp.oracle import enumerate_connected_kpartitions
from bcp.partition import Partition, StarCenterCertificate, sort_classes


def w_minus(g: WeightedGraph, p: Partition) -> int:
    """Weight of the lightest class."""
    return min(g.weight(c) for c in p)


def star_of(g: WeightedGraph, u: int) -> StarCenterCertificate:
    """A certificate around any vertex u, from a fresh walk of G - u: its
    components sorted by (weight, smallest id), without the checks of
    bcp.minmax.star_center_certificate."""
    return StarCenterCertificate(u, sort_classes(g, components(g, frozenset(range(g.n)) - {u})))


def minmax_bcp3(g: WeightedGraph) -> Partition:
    """Ordered connected 3-partition with w+ <= (3/2) * optimum, and exactly
    optimal whenever the returned heaviest class weighs more than w(G)/2."""
    return _improvement_loop(g, initial_3partition(g))[0]


def split_off_singletons_repicked(g: WeightedGraph, p: Partition, q: int) -> Partition:
    """`split_off_singletons` that sums every class to pick the heaviest
    splittable one and builds a fresh DFS tree (`graph.non_cut_vertex`) for
    each singleton.  The fast path is bcp.minmax.split_off_singletons, which
    carries class weights and peels one tree per class."""
    if q < 0 or len(p) + q > g.n:
        raise ContractViolation(f"cannot add {q} singleton classes")
    classes = list(p)
    for _ in range(q):
        candidates = [c for c in classes if len(c) >= 2]
        pick = max(candidates, key=lambda c: (g.weight(c), -min(c)))
        u = non_cut_vertex(g, pick)
        classes[classes.index(pick)] = pick - {u}
        classes.append(frozenset({u}))
    return tuple(classes)


def exhaustive_optimum(
    g: WeightedGraph, k: int, objective: Callable[[Iterable[int]], int]
) -> tuple[int, Partition]:
    """Optimum of the class-weight objective (max minimized, min maximized)
    over every connected k-partition, with the optimum of lexicographically
    smallest restricted-growth string as witness: number the classes by
    their smallest vertex and read off each vertex's class label.  The fast
    path is bcp.oracle._optimum, which bounds the search by its incumbent."""
    flip = 1 if objective is max else -1
    best: tuple[int, list[int], Partition] | None = None
    for p in enumerate_connected_kpartitions(g, k):
        value = objective(g.weight(c) for c in p)
        classes = tuple(sorted(p, key=min))
        label = {v: i for i, c in enumerate(classes) for v in c}
        rgs = [label[v] for v in range(g.n)]
        if best is None or (flip * value, rgs) < (flip * best[0], best[1]):
            best = (value, rgs, classes)
    assert best is not None
    return best[0], best[2]


def all_connected_kpartitions(g: WeightedGraph, k: int) -> list[Partition]:
    """Every connected k-partition of g: each restricted-growth string of
    the vertices into exactly k blocks (vertex v's block is at most one
    more than the largest before it), kept when every block is connected.
    The fast path is bcp.oracle._search, which prunes as it grows."""
    found = []

    def grow(labels: list[int], blocks: int) -> None:
        if len(labels) == g.n:
            classes = tuple(
                frozenset(v for v, b in enumerate(labels) if b == c) for c in range(blocks)
            )
            if blocks == k and all(is_connected(g, c) for c in classes):
                found.append(classes)
            return
        for b in range(min(blocks + 1, k)):
            grow(labels + [b], max(blocks, b + 1))

    grow([0], 1)
    return found


def dfs_tree_recursive(
    g: WeightedGraph, s: Iterable[int], root: int
) -> tuple[list[int], dict[int, int]]:
    """DFS preorder of G[s] from root, recursing into neighbours in
    ascending id order, and the parent map of its tree (the root is its own
    parent).  The fast path is bcp.graph._dfs_tree, which keeps its own
    stack."""
    inside = frozenset(s)
    parent = {root: root}
    order = [root]

    def visit(v: int) -> None:
        for w in sorted(g.adjacency[v]):
            if w in inside and w not in parent:
                parent[w] = v
                order.append(w)
                visit(w)

    visit(root)
    return order, parent


def matching_cover(g: WeightedGraph) -> VertexSet:
    """Both endpoints of the maximal matching built greedily over the edges
    in ascending order: the cover bcp.fpt.greedy_vertex_cover starts from
    before it drops redundant endpoints."""
    cover: set[int] = set()
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.update((u, v))
    return frozenset(cover)


def oracle_pull_admissible(
    g: WeightedGraph, p: Partition, i: int, max_subset_base: int = 20
) -> VertexSet | None:
    """Exhaustively search V3 for a pull-admissible subset w.r.t. class i.

    Checks every nonempty proper subset U of V3 for: both G[Vi+U] and
    G[V3-U] connected and w(Vi+U) < w(V3).  The fast path is
    bcp.minmax.pull_check.
    """
    if i not in (1, 2):
        raise ContractViolation("class index must be 1 or 2")
    v3 = p[2]
    vi = p[i - 1]
    if len(v3) > max_subset_base:
        raise BudgetExceeded(f"|V3|={len(v3)} exceeds subset budget {max_subset_base}")
    w3 = g.weight(v3)
    members = sorted(v3)
    for r in range(1, len(members)):
        for combo in combinations(members, r):
            u = frozenset(combo)
            if g.weight(vi) + g.weight(u) >= w3:
                continue
            if is_connected(g, vi | u) and is_connected(g, v3 - u):
                return u
    return None


def pull_check_components(g: WeightedGraph, p: Partition, i: int) -> VertexSet | None:
    """`pull_check` for an ordered 3-partition, walking all of V3 - v with
    `components` for each boundary vertex v and summing every class.  The
    fast path is bcp.minmax.pull_check, which carries the class weights and
    stops searching V3 - v at the smaller side (graph.heaviest_piece)."""
    v3 = p[2]
    if len(v3) < 2:
        return None
    for v in boundary_neighbors(g, p[i - 1], v3):
        heavy = sort_classes(g, components(g, v3 - {v}))[-1]
        if g.weight(p[i - 1]) < g.weight(heavy):
            return v3 - heavy
    return None


def carried(g: WeightedGraph, p: Partition) -> tuple[tuple[VertexSet, int, VertexSet], ...]:
    """The record (members, weight, outer boundary N(C) - C) of each class
    of p, recomputed from scratch from every member's adjacency: the state
    the min-max loop carries and passes to bcp.minmax.merge, pull_check and
    pull."""
    return tuple((c, g.weight(c), frozenset(y for x in c for y in g.adjacency[x]) - c) for c in p)


def merge_resummed(g: WeightedGraph, p: Partition) -> Partition | None:
    """`merge` that orders its result by summing all three classes again."""
    v1, v2, v3 = p
    if len(v3) < 2 or not boundary_neighbors(g, v1, v2):
        return None
    return sort_classes(g, (v1 | v2, *split_two(g, v3)))


def pull_resummed(g: WeightedGraph, p: Partition, i: int) -> Partition | None:
    """`pull` by `pull_check_components`, ordered by summing all three
    classes again."""
    u = pull_check_components(g, p, i)
    if u is None:
        return None
    return sort_classes(g, (p[2 - i], p[i - 1] | u, p[2] - u))


@dataclass
class ModelCandidate:
    """An integral assignment of the model variables by vertex id and
    neighborhood: x_class[v] is cover vertex v's class, y[S] the class
    counts of I(S).  The solver works in cover-position masks instead."""

    x_class: dict[int, int]
    y: dict[VertexSet, tuple[int, ...]]


def model_order(partition: Iterable[Iterable[int]]) -> list[VertexSet]:
    """The classes of a partition as the model indexes them: by (size, min id)."""
    return sorted((frozenset(c) for c in partition), key=lambda c: (len(c), min(c)))


def class_size(candidate: ModelCandidate, i: int) -> int:
    return sum(1 for c in candidate.x_class.values() if c == i) + sum(
        counts[i] for counts in candidate.y.values()
    )


def encode(model: FptModel, partition: Sequence[Iterable[int]]) -> ModelCandidate:
    """Model vector of a partition, classes ordered by (size, min id)."""
    classes = model_order(partition)
    if len(classes) != model.k:
        raise ContractViolation(f"expected {model.k} classes, got {len(classes)}")
    xset = frozenset(model.dec.cover)
    x_class = {}
    for i, c in enumerate(classes):
        for v in c & xset:
            x_class[v] = i
    y = {}
    for s, members in model.dec.classes_by_neighborhood.items():
        mset = set(members)
        y[s] = tuple(len(mset & c) for c in classes)
    return ModelCandidate(x_class=x_class, y=y)


def classes_of(model: FptModel, candidate: ModelCandidate) -> list[VertexSet]:
    """The classes of a model vector by vertex id: class i holds the cover
    vertices x_class puts there and the y[S][i] lowest-id members of I(S)
    that the classes before it left."""
    classes = [{v for v, c in candidate.x_class.items() if c == i} for i in range(model.k)]
    for s, members in model.dec.classes_by_neighborhood.items():
        at = 0
        for c, count in zip(classes, candidate.y[s]):
            c.update(members[at : at + count])
            at += count
    return [frozenset(c) for c in classes]


def check_base(model: FptModel, candidate: ModelCandidate) -> list[str]:
    """Report violations of the non-cut base constraints."""
    report = []
    k = model.k
    sizes = [class_size(candidate, i) for i in range(k)]
    for i in range(k - 1):
        if sizes[i] > sizes[i + 1]:
            report.append(f"class sizes not non-decreasing at {i}: {sizes}")
    for v in model.dec.cover:
        c = candidate.x_class.get(v)
        if c is None or not 0 <= c < k:
            report.append(f"cover vertex {v} not assigned to a class")
    for s, members in model.dec.classes_by_neighborhood.items():
        counts = candidate.y.get(s)
        if counts is None or len(counts) != k:
            report.append(f"missing counts for neighborhood {sorted(s)}")
            continue
        if any(c < 0 for c in counts):
            report.append(f"negative count for neighborhood {sorted(s)}")
        if sum(counts) != len(members):
            report.append(
                f"neighborhood {sorted(s)} distributes {sum(counts)} of {len(members)}"
            )
        for i in range(k):
            if counts[i] > 0 and not any(candidate.x_class.get(v) == i for v in s):
                report.append(
                    f"class {i} takes from neighborhood {sorted(s)} without a neighbor"
                )
    return report


@lru_cache(maxsize=None)
def _rendered_terms(text: str) -> tuple[list[tuple[int, str, int | VertexSet, int]], int]:
    """(sign, variable, vertex or S, class) of each left-hand term of a
    rendered cut, and its right-hand side."""
    lhs, rhs = text.split(" <= ")
    parts = re.split(r" ([+-]) ", lhs)
    terms = []
    for sign, term in zip(["+"] + parts[1::2], parts[::2]):
        name, args, i = re.fullmatch(r"([xy])\[(.+),(\d+)\]", term).groups()
        key = int(args) if name == "x" else frozenset(int(v) for v in args.strip("{}").split(","))
        terms.append((1 if sign == "+" else -1, name, key, int(i)))
    return terms, int(rhs)


def cut_holds(model: FptModel, cut: CutConstraint, classes: Sequence[VertexSet]) -> bool:
    """Whether the inequality `cut.render` prints holds for the classes,
    classes[i] being class i, evaluated term by term: x[v,i] reads 1 iff v
    is in classes[i], and y[S,i] counts the members of I(S) in classes[i].
    The search's own test is a mask test on the cover assignment alone."""
    terms, rhs = _rendered_terms(cut.render(model.dec))
    total = 0
    for sign, name, key, i in terms:
        if name == "x":
            total += sign * (key in classes[i])
        else:
            total += sign * len(classes[i].intersection(model.dec.classes_by_neighborhood[key]))
    return total <= rhs


def tree_plus_edges(n: int, weight_range: tuple[int, int] = (1, 1), seed: int = 0) -> WeightedGraph:
    """`generate("tree-plus-edges", ...)` sampling from an explicit list of
    all ~n²/2 missing pairs.  The fast path is bcp.instances._MissingPairs."""
    lo, hi = weight_range
    rng = random.Random(("tree-plus-edges", n, lo, hi, seed).__repr__())
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    edges += rng.sample(candidates, min(len(candidates), max(1, n // 3)))
    return WeightedGraph.from_edges(n, edges, [rng.randint(lo, hi) for _ in range(n)])


def reach_hyperedges(
    dec: VertexCoverDecomposition, alloc: Sequence[Sequence[int]], i: int, u: int, z: VertexSet
) -> tuple[int, ...]:
    """F of a class-i cut from u, as group indices ascending, by a fixpoint
    over H_Z: grow the nodes reachable from u's node through hyperedges
    whose group gives class i a unit (alloc[j][i] >= 1), then take the
    hyperedges without one that touch a reached node.  The fast path is
    bcp.fpt.separate."""
    hyper = build_hypergraph(dec, z)
    reach = {next(idx for idx, comp in enumerate(hyper.nodes) if u in comp)}
    active = [touched for j, (_, touched) in enumerate(hyper.edges) if alloc[j][i] >= 1]
    grown = True
    while grown:
        grown = False
        for touched in active:
            if touched & reach and not touched <= reach:
                reach |= touched
                grown = True
    return tuple(j for j, (_, touched) in enumerate(hyper.edges) if alloc[j][i] == 0 and touched & reach)


def max_flow_network(
    supplies: list[int], demands: list[int], elig: list[list[int]]
) -> list[list[int]] | None:
    """Integral transport meeting every demand, or None, by Edmonds-Karp on
    a generic network: source -> group j (cap supply), group -> class i for
    eligible i (unbounded), class -> sink (cap demand), with a dict of arc
    capacities and adjacency lists.  The fast path is bcp.fpt._max_flow,
    which augments on the groups x classes flow matrix and must return the
    same flows."""
    m, k = len(supplies), len(demands)
    need = sum(demands)
    if need == 0:
        return [[0] * k for _ in range(m)]
    src, snk = m + k, m + k + 1
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {n: [] for n in range(m + k + 2)}

    def arc(a: int, b: int, c: int) -> None:
        cap[(a, b)] = c
        cap[(b, a)] = cap.get((b, a), 0)
        if b not in adj[a]:
            adj[a].append(b)
        if a not in adj[b]:
            adj[b].append(a)

    for j, s in enumerate(supplies):
        arc(src, j, s)
    for j in range(m):
        for i in elig[j]:
            arc(j, m + i, need)
    for i, d in enumerate(demands):
        arc(m + i, snk, d)

    sent = 0
    while sent < need:
        parent = {src: src}
        queue = deque([src])
        while queue and snk not in parent:
            a = queue.popleft()
            for b in adj[a]:
                if b not in parent and cap.get((a, b), 0) > 0:
                    parent[b] = a
                    queue.append(b)
        if snk not in parent:
            return None
        path = [snk]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        push = min(cap[(path[t], path[t + 1])] for t in range(len(path) - 1))
        for t in range(len(path) - 1):
            cap[(path[t], path[t + 1])] -= push
            cap[(path[t + 1], path[t])] = cap.get((path[t + 1], path[t]), 0) + push
        sent += push
    return [[cap.get((m + i, j), 0) for i in range(k)] for j in range(m)]


def distribute_product(
    counts: list[int],
    elig: list[list[int]],
    bases: list[int],
    covers: list[tuple[int, list[int]]],
    cap_value: int,
) -> tuple[int, list[list[int]]] | None:
    """Exact max-min completion of the stable-set counts under covers, by
    trying every way of choosing one provider group per cover and binary
    searching the transport for each.  Returns the best (value, allocation)
    or None when the covers are unsatisfiable.  The fast path is
    bcp.fpt._distribute, which branches on one unmet cover at a time."""
    k = len(bases)
    m = len(counts)
    option_lists = []
    for class_index, groups in covers:
        opts = [(j, class_index) for j in groups]
        if not opts:
            return None
        option_lists.append(opts)

    seen: set[frozenset[tuple[int, int]]] = set()
    best: tuple[int, list[list[int]]] | None = None
    for combo in product(*option_lists) if option_lists else [()]:
        forced = frozenset(combo)
        if forced in seen:
            continue
        seen.add(forced)
        per_group = Counter(j for j, _ in forced)
        if any(per_group[j] > counts[j] for j in per_group):
            continue
        base_eff = list(bases)
        for _, i in forced:
            base_eff[i] += 1
        supplies = [counts[j] - per_group[j] for j in range(m)]

        # The last feasible probe set lo, so its flow is the flow at lo.
        lo, hi = 0, cap_value
        alloc = [[0] * k for _ in range(m)]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            flow = _max_flow(supplies, [max(0, mid - b) for b in base_eff], elig)
            if flow is not None:
                lo, alloc = mid, flow
            else:
                hi = mid - 1
        if best is not None and lo <= best[0]:
            continue
        for j, i in forced:
            alloc[j][i] += 1
        best = (lo, alloc)
    if best is None:
        return None

    value, alloc = best
    sizes = [bases[i] + sum(alloc[j][i] for j in range(m)) for i in range(k)]
    for j in range(m):
        left = counts[j] - sum(alloc[j])
        for _ in range(left):
            i = min(elig[j], key=lambda i: (sizes[i], i))
            alloc[j][i] += 1
            sizes[i] += 1
    return value, alloc
