"""Min-max balanced connected k-partition via local improvement.

The k=3 solver repeatedly shrinks the heaviest class of an ordered
3-partition with two moves: `merge` fuses the two light classes and splits
the heavy one, `pull` drags a boundary piece of the heavy class into a light
one.  When neither applies the instance has a star-like cut-vertex structure
that certifies optimality.  For k > 3 one base partition, the terminal
3-partition or, around a star center u, u's class and the other components
of G - u, grows by singleton classes (`split_off_singletons`), at one DFS
per split class and a heap step per singleton.

Each move strictly decreases the heaviest class weight, so with integer
weights the loop runs at most w(G) iterations.

A move pays only for what moves.  The loop keeps one record per class,
(members, weight, outer boundary B(C) = N(C) - C), the three in
`sort_classes` order, so no move sums or scans a class it does not change.
The start reads only the two light classes' adjacency, and they are
singletons after `initial_3partition`.

- A pull tries the vertices v of B(Vi) & V3, ascending.  For each it
  searches the pieces of V3 - v from all of v's neighbours at once and stops
  when one search is left (`graph.heaviest_piece`), so it walks the pieces
  cut off V3 and about as much of the heaviest, not all of V3.  Moving
  U = V3 - H into Vi updates B(Vi) and B(H) from the adjacency of B(V3) and
  of B(Vi) & U, which holds v, without reading U's; the other light class
  keeps its boundary.
- A merge tests B(V1) against V2 and splits V3 along a spanning tree of
  G[V3], walking all of V3; `_records` then sums its three classes and reads
  the adjacency of the two lighter ones only.  Merges are rare.

What still scans whole classes is set work in C: copying Vi | U and V3 - U,
and the smallest id of a class on a weight tie, which is rare.  The loop's
terminal check rebuilds the records from scratch, so a wrong update
raises InternalError instead of changing an answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import ContractViolation, InternalError
from .graph import (
    VertexSet,
    WeightedGraph,
    _dfs_tree,
    boundary_neighbors,
    components,
    heaviest_piece,
    non_cut_vertices,
    split_two,
)
from .partition import Partition, StarCenterCertificate, order3, sort_classes, validate, w_plus


class Certificate(Enum):
    """How a k-partition's quality is certified."""

    RATIO_HALF_W = "RatioHalfW"      # heaviest class weighs at most w(G)/2
    SINGLETON_TOP = "SingletonTop"   # heaviest class is a single vertex
    STAR_OPTIMAL = "StarOptimal"     # around a cut vertex; optimal if its class is heaviest
    SCALED = "Scaled"                # an eps run: only the k/2 + eps bound


@dataclass(frozen=True)
class BcpkResult:
    classes: Partition
    certificate: Certificate
    star: StarCenterCertificate | None
    iterations: int


Record = tuple[VertexSet, int, VertexSet]  # (members, weight, outer boundary N(C) - C)
State = tuple[Record, Record, Record]


def _records(g: WeightedGraph, p: Partition) -> State:
    """The record of each class of a 3-partition, from scratch but reading
    only the adjacency of V1 and V2, once each: B(V3) holds their members
    that touch V3."""
    v1, v2, v3 = p
    light = []
    b3: list[int] = []
    for c in (v1, v2):
        lists = {x: g.adjacency[x] for x in c}
        b3 += (x for x, ys in lists.items() if not v3.isdisjoint(ys))
        light.append((c, g.weight(c), frozenset(chain.from_iterable(lists.values())) - c))
    return light[0], light[1], (v3, g.weight(v3), frozenset(b3))


def _ordered(*records: Record) -> State:
    """Three records in `sort_classes` order; a class's smallest id is
    looked up only to break a weight tie."""
    tied = len({weight for _, weight, _ in records}) < 3
    return tuple(sorted(records, key=lambda r: (r[1], min(r[0]) if tied else 0)))


def merge(g: WeightedGraph, state: State) -> State | None:
    """Fuse V1 with V2 and split V3 into two connected halves.

    `state` is the loop's records of an ordered 3-partition, which no move
    checks.  Requires w(V3) > w(G)/2.  Returns None when the move does not
    apply: V1 and V2 are not adjacent, or |V3| < 2.  Otherwise the result is
    the records of the ordered partition; its heaviest class is strictly
    lighter than the old V3, and its classes are connected by construction:
    V1 touches V2, and the halves are the sides of a deleted spanning-tree
    edge of G[V3].
    """
    (v1, _, b1), (v2, _, _), (v3, w3, _) = state
    if 2 * w3 <= g.total_weight:
        raise ContractViolation("merge() requires w(V3) > w(G)/2")
    if len(v3) < 2 or b1.isdisjoint(v2):
        return None
    return _records(g, sort_classes(g, (v1 | v2, *split_two(g, v3))))


def pull_check(g: WeightedGraph, state: State, i: int) -> tuple[VertexSet, int, VertexSet] | None:
    """Find a pull-admissible subset U of V3 for light class i in {1, 2},
    its weight, and V3 - U.

    `state` is as for `merge`.  Scans the vertices v of B(Vi) & V3
    ascending; the lightest set around v is U = V3 - H for the heaviest
    component H of V3 - v, and it applies iff w(Vi) < w(H).  Vi | U is
    connected, since every component of V3 - v touches v, and V3 - U = H.
    Returns None only if no pull-admissible set exists at all.
    """
    if i not in (1, 2):
        raise ContractViolation("class index must be 1 or 2")
    (_, wi, bi), (v3, w3, _) = state[i - 1], state[2]
    if 2 * w3 <= g.total_weight:
        raise ContractViolation("pull_check() requires w(V3) > w(G)/2")
    if len(v3) < 2:
        return None
    for v in sorted(bi & v3):
        heavy, heavy_weight, u = heaviest_piece(g, v3, v, w3)
        if wi < heavy_weight:
            return u, w3 - heavy_weight, heavy
    return None


def pull(g: WeightedGraph, state: State, i: int) -> State | None:
    """Move the set `pull_check(g, state, i)` finds from V3 into light class
    i in {1, 2}, and return the records of the reordered partition, or None
    when it finds none.  The three classes stay connected by `pull_check`'s
    construction of the set.

    Only the two changed boundaries are updated, at the cost of B(V3) and
    of v, the vertex `pull_check` tried, not of U.  The rest H is a
    component of V3 - v, so v is its only neighbour in U, and v lies in
    B(Vi) & U.  So B(H) is v and the members of B(V3) that touch H, and
    B(Vi | U) is B(Vi) - U, v's neighbours in H, and the members of B(V3)
    in the other light class that touch U.
    """
    found = pull_check(g, state, i)
    if found is None:
        return None
    u, wu, rest = found
    adjacency = g.adjacency
    (vi, wi, bi), other, (_, w3, b3) = state[i - 1], state[2 - i], state[2]
    v = next(x for x in bi & u if not rest.isdisjoint(adjacency[x]))
    grown_boundary = (bi - u).union(
        rest.intersection(adjacency[v]),
        (y for y in b3 & other[0] if not u.isdisjoint(adjacency[y])),
    )
    rest_boundary = frozenset({v}).union(x for x in b3 if not rest.isdisjoint(adjacency[x]))
    return _ordered(other, (vi | u, wi + wu, grown_boundary), (rest, w3 - wu, rest_boundary))


def initial_3partition(g: WeightedGraph) -> Partition:
    """Deterministic starting point: the peel rule of `split_off_singletons`
    on the whole graph, one DFS from vertex 0 whose last two preorder
    vertices become singleton classes.  Each vertex's parent precedes it in
    the preorder, so every prefix, and in particular the rest, induces a
    connected subgraph: the classes come in `sort_classes` order unchecked."""
    if g.n < 3:
        raise ContractViolation("need at least 3 vertices for a 3-partition")
    *rest, second, last = _dfs_tree(g, frozenset(range(g.n)), 0)[0]
    return sort_classes(g, (frozenset({last}), frozenset({second}), frozenset(rest)))


def _improvement_loop(g: WeightedGraph, p: Partition) -> tuple[Partition, int]:
    """Run merge/pull from p, in `sort_classes` order, until w(V3) <= w(G)/2
    or neither move applies.

    Returns the terminal ordered partition and the iteration count; aborts if
    the heaviest weight ever fails to strictly decrease.  The moves build
    connected classes and their records unchecked; `order3` validates the
    terminal partition once and raises ContractViolation if a move broke it,
    and InternalError follows if the carried records drifted from the ones
    rebuilt from scratch, in members, weight, boundary or order.
    """
    total = g.total_weight
    iterations = 0
    state = _records(g, p)
    while 2 * state[2][1] > total:
        moved = merge(g, state) or pull(g, state, 1) or pull(g, state, 2)
        if moved is None:
            break
        iterations += 1
        if moved[2][1] >= state[2][1]:
            raise InternalError("heaviest class weight did not decrease")
        state = moved
    terminal = order3(g, [members for members, _, _ in state])
    if _records(g, terminal) != state:
        raise InternalError("the carried class weights, boundaries or order drifted")
    return terminal, iterations


def star_center_certificate(g: WeightedGraph, p: Partition) -> StarCenterCertificate:
    """Extract and verify the cut-vertex structure of a terminal 3-partition
    with w(V3) > w(G)/2 and |V3| >= 2.

    The unique V3-vertex adjacent to V1 is the star center u; removing it
    must leave V1 and V2 as components with everything else no heavier than
    V1.  A structure mismatch means the partition was not terminal (or the
    solver is buggy) and raises ContractViolation.
    """
    if len(p) != 3 or sort_classes(g, p) != tuple(p):
        raise ContractViolation("expected a weight-ordered connected 3-partition")
    v1, v2, v3 = p
    w1, w3 = g.weight(v1), g.weight(v3)
    total = g.total_weight
    if 2 * w3 <= total:
        raise ContractViolation("star certificate needs w(V3) > w(G)/2")
    if len(v3) < 2:
        raise ContractViolation("star certificate needs |V3| >= 2")
    if boundary_neighbors(g, v1, v2):
        raise ContractViolation("V1 and V2 must not be adjacent")
    if 4 * w1 >= total:
        raise ContractViolation("expected w(V1) < w(G)/4 at a terminal partition")
    hits1 = boundary_neighbors(g, v1, v3)
    hits2 = boundary_neighbors(g, v2, v3)
    if len(hits1) != 1 or hits1 != hits2:
        raise ContractViolation(
            f"expected a single shared contact vertex, got {hits1} and {hits2}"
        )
    u = hits1[0]
    comps = sort_classes(g, components(g, frozenset(range(g.n)) - {u}))
    if v1 not in comps or v2 not in comps:
        raise ContractViolation("V1 and V2 must be components of G-u")
    # comps ascend, so the last stray component is the heaviest
    stray = next((c for c in reversed(comps) if c not in (v1, v2)), None)
    if stray is not None and g.weight(stray) > w1:
        raise ContractViolation("a stray component outweighs V1")
    if len(comps) == 3 and 4 * g.weights[u] <= total:
        raise ContractViolation("with 3 components the center must weigh > w(G)/4")
    return StarCenterCertificate(u=u, comps=comps)


def split_off_singletons(g: WeightedGraph, p: Partition, q: int) -> Partition:
    """Grow a partition by q classes, each time cutting from the heaviest
    class with at least two members (ties: smallest id) the last vertex of
    its DFS preorder from its smallest id (`graph.non_cut_vertices`); the
    singletons follow in cut order, and the heaviest weight never grows.
    Cost: one DFS per split class, then a class-heap step per singleton."""
    if q < 0 or len(p) + q > g.n:
        raise ContractViolation(f"cannot add {q} singleton classes")
    # (-weight, smallest id, size, index in p) of each class left to split
    heap = [(-g.weight(c), min(c), len(c), i) for i, c in enumerate(p) if len(c) >= 2]
    heapq.heapify(heap)
    peelers = [non_cut_vertices(g, c) for c in p]
    cut = []
    for _ in range(q):
        neg_weight, root, size, i = heap[0]
        u = next(peelers[i])
        cut.append(u)
        if size > 2:
            heapq.heapreplace(heap, (neg_weight + g.weights[u], root, size - 1, i))
        else:
            heapq.heappop(heap)
    gone = frozenset(cut)
    return tuple(c - gone for c in p) + tuple(frozenset({u}) for u in cut)


def minmax_bcpk(g: WeightedGraph, k: int) -> BcpkResult:
    """Connected k-partition with heaviest class at most (k/2) times the
    optimum.  A `StarOptimal` result is optimal when the center's class is
    the heaviest, so the cut-vertex bound equals the value; at k=3 a stall
    above w(G)/2 is always optimal.  Past the k check, a step's
    ContractViolation is the solver's own bug and raises InternalError."""
    if not 3 <= k <= g.n:
        raise ContractViolation(f"k must be in [3, {g.n}], got {k}")
    try:
        p, iterations = _improvement_loop(g, initial_3partition(g))
        total = g.total_weight
        star = None
        if 2 * w_plus(g, p) > total and len(p[2]) > 1:
            found = star_center_certificate(g, p)
            t = max(0, found.ell - k + 1)
            p = (frozenset({found.u}).union(*found.comps[:t]),) + found.comps[t:]
            star = found if len(p) == k else None
        classes = split_off_singletons(g, p, k - len(p))
    except ContractViolation as exc:
        raise InternalError(f"minmax_bcpk() broke a step's contract: {exc}") from exc
    report = validate(g, classes, k)
    if report:
        raise InternalError("minmax_bcpk() built an invalid partition: " + "; ".join(report))
    # Splitting never makes the heaviest class heavier, and a base without
    # a star is above w(G)/2 only in a singleton: V3 = {v}, or {u} beside
    # components of weight <= w(V2) <= w(G)/2.  No partition avoids its weight.
    if star is not None:
        cert = Certificate.STAR_OPTIMAL
    elif 2 * w_plus(g, classes) <= total:
        cert = Certificate.RATIO_HALF_W
    else:
        cert = Certificate.SINGLETON_TOP
    return BcpkResult(sort_classes(g, classes), cert, star, iterations)
