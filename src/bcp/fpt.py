"""Exact unweighted max-min BCP, parameterized by a vertex cover.

Vertices outside the cover form a stable set I and are interchangeable
within each neighborhood class I(S) = {v in I : N(v) = S}, so the model
only decides how many of them each partition class receives (integer
variables y[S,i]) next to binary membership x[v,i] for cover vertices.

The search assigns the cover depth-first, one bitmask of cover positions
per class, and completes each assignment with the y counts of a transport
max-flow searched only above the best value so far, where the paper hands
it to an ILP in few variables (Lenstra).  Connectivity is enforced lazily:
a class that the masks and counts leave disconnected adds a cut over a
separator Z and hyperedges F of the component hypergraph H_Z to a growing
pool, in the search's form (masks of {u, v} and of Z, F's group indices),
and the leaf distributes again, branching on the unmet binding cut with
the fewest groups; a cut repeating or containing another of its class is
never picked first and is met once that one is, so none is pruned.  The
pool never excludes the encoding of a real connected partition, so the
search is exact.  Vertex ids return only when the pool is rendered and
when the best candidate is decoded, once, as the search ends.

Two shortcuts keep the search from proving a fact twice.  No lightest
class beats n // k vertices, nor one vertex when k exceeds the cover size,
so when the max-min tree greedy on G's DFS tree (`graph.split_at_least`)
reaches that cap, its classes are the answer and no node is searched.  And
a leaf whose transport, before any cut binds, cannot beat the best value
refutes its kind, the multiset of its classes' (size, groups met): every
later leaf of that kind is skipped unprobed.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, ContractViolation, InputError, InternalError
from .graph import VertexSet, WeightedGraph, components, mask_reach, split_at_least
from .partition import Partition, sort_classes, validate


def greedy_vertex_cover(g: WeightedGraph) -> VertexSet:
    """Both endpoints of a greedy maximal matching over the ascending edges,
    less each one, taken ascending, whose neighbours all stay in the cover:
    still a cover, and at most twice a minimum one."""
    cover: set[int] = set()
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    for v in sorted(cover):
        if cover.issuperset(g.adjacency[v]):
            cover.discard(v)
    return frozenset(cover)


@dataclass(frozen=True)
class VertexCoverDecomposition:
    graph: WeightedGraph
    cover: tuple[int, ...]
    stable: tuple[int, ...]
    # Each nonempty I(S) by S, keys ascending by sorted(S), members ascending.
    classes_by_neighborhood: dict[VertexSet, tuple[int, ...]]
    # Cover-position masks, bit p standing for cover[p]: each group's S, in
    # key order, and each cover vertex's neighbours in the cover.
    set_masks: tuple[int, ...]
    cover_nbr: tuple[int, ...]


def decompose(g: WeightedGraph, cover: Iterable[int] | None = None) -> VertexCoverDecomposition:
    """Split V into a vertex cover X and stable set I, grouping I by exact
    neighborhood.  A supplied cover is validated; otherwise a greedy one is
    computed."""
    if cover is None:
        x = greedy_vertex_cover(g)
    else:
        x = frozenset(cover)
        for v in x:
            if not 0 <= v < g.n:
                raise InputError(f"cover vertex {v} out of range")
        for u, v in g.edges():
            if u not in x and v not in x:
                raise InputError(f"supplied set misses edge ({u},{v}); not a vertex cover")
    xs = tuple(sorted(x))
    pos = {v: p for p, v in enumerate(xs)}
    stable = tuple(v for v in range(g.n) if v not in x)
    groups: dict[VertexSet, list[int]] = {}
    for v in stable:
        s = frozenset(g.adjacency[v])
        groups.setdefault(s, []).append(v)
    keys = sorted(groups, key=sorted)
    return VertexCoverDecomposition(
        graph=g,
        cover=xs,
        stable=stable,
        classes_by_neighborhood={s: tuple(groups[s]) for s in keys},
        set_masks=tuple(sum(1 << pos[v] for v in s) for s in keys),
        cover_nbr=tuple(sum(1 << pos[w] for w in g.adjacency[v] if w in pos) for v in xs),
    )


@dataclass(frozen=True)
class CutHypergraph:
    """Components of G[X-Z] as nodes; one hyperedge per nonempty I(S)
    recording which of those components S touches."""

    z: VertexSet
    nodes: tuple[VertexSet, ...]
    edges: tuple[tuple[VertexSet, frozenset[int]], ...]


def build_hypergraph(dec: VertexCoverDecomposition, z: Iterable[int]) -> CutHypergraph:
    zset = frozenset(z)
    xset = frozenset(dec.cover)
    if not zset <= xset:
        raise ContractViolation("Z must be a subset of the cover")
    rest = xset - zset
    if not rest:
        raise ContractViolation("Z must not be the whole cover")
    nodes = tuple(components(dec.graph, rest))
    edges = []
    for s in dec.classes_by_neighborhood:
        touched = frozenset(i for i, comp in enumerate(nodes) if s & comp)
        edges.append((s, touched))
    return CutHypergraph(z=zset, nodes=nodes, edges=tuple(edges))


class CutConstraint(NamedTuple):
    """x[u,i] + x[v,i] - sum(x[z,i] for z in Z) - sum(y[S,i] for S in F) <= 1
    as class i, the cover-position masks of {u, v} (need) and of Z (avoid),
    and F's group indices ascending.  It binds where class i's mask cm has
    cm & (need | avoid) == need, and then demands a class-i unit from F;
    otherwise its x terms sum to at most 1 and it holds whatever y is."""

    class_index: int
    need: int
    avoid: int
    groups: tuple[int, ...]

    def render(self, dec: VertexCoverDecomposition) -> str:
        i = self.class_index
        u, v = (x for p, x in enumerate(dec.cover) if self.need >> p & 1)
        zs = "".join(f" - x[{z},{i}]" for p, z in enumerate(dec.cover) if self.avoid >> p & 1)
        sets = list(dec.classes_by_neighborhood)
        ys = "".join(f" - y[{set(sorted(sets[j]))},{i}]" for j in self.groups)
        return f"x[{u},{i}] + x[{v},{i}]{zs}{ys} <= 1"


@dataclass
class FptModel:
    """Dimensions, base constraints and the growing cut pool of one solve,
    its cuts in the order found."""

    dec: VertexCoverDecomposition
    k: int
    cuts: list[CutConstraint] = field(default_factory=list)

    def dump(self) -> str:
        dec = self.dec
        lines = [
            f"max-min connected partition model, k={self.k}",
            f"cover X = {list(dec.cover)}",
            f"stable I = {list(dec.stable)}",
            "neighborhood classes:",
        ]
        for s, members in dec.classes_by_neighborhood.items():
            lines.append(f"  I({sorted(s)}) = {list(members)}")
        nx = len(dec.cover) * self.k
        ny = len(dec.classes_by_neighborhood) * self.k
        lines.append(f"variables: {nx} binary x[v,i], {ny} integer y[S,i]")
        lines.append("base constraints:")
        lines.append("  class sizes non-decreasing in i")
        lines.append("  each cover vertex in exactly one class")
        lines.append("  y[S,i] <= |I(S)| * sum(x[v,i] for v in S)")
        lines.append("  sum_i y[S,i] = |I(S)|")
        lines.append(f"cut pool ({len(self.cuts)} cuts):")
        for cut in self.cuts:
            lines.append("  " + cut.render(dec))
        return "\n".join(lines) + "\n"


def separate(
    dec: VertexCoverDecomposition, class_masks: Sequence[int], alloc: Sequence[Sequence[int]]
) -> list[CutConstraint]:
    """Violated connectivity cuts of a cover assignment (class_masks[i]: class
    i's cover positions) and a count allocation (alloc[j][i]: class i's units
    of group j), one per disconnected class.

    A unit of group j joins every position of its S in the class, since all
    its members neighbour exactly S.  So class i's component of its lowest
    position u is a flood fill over cover adjacency OR-ed with the masks of
    the groups giving the class a unit; v is the lowest position outside it,
    Z the cover outside the class, and F the groups giving it no unit whose
    S meets the component.  Any path reconnecting u to v must cross F, so
    the cut is valid for every feasible solution yet violated here.
    """
    full = (1 << len(dec.cover)) - 1
    cuts: list[CutConstraint] = []
    for i, cm in enumerate(class_masks):
        nbr = list(dec.cover_nbr)
        for sm, row in zip(dec.set_masks, alloc):
            if row[i]:
                for p in range(len(nbr)):
                    if sm >> p & 1:
                        nbr[p] |= sm
        reach = mask_reach(nbr, cm)
        if reach == cm:
            continue
        rest = cm & ~reach
        groups = tuple(j for j, sm in enumerate(dec.set_masks) if not alloc[j][i] and sm & reach)
        cuts.append(CutConstraint(i, (cm & -cm) | (rest & -rest), full & ~cm, groups))
    return cuts


def reconstruct(
    dec: VertexCoverDecomposition, class_masks: Sequence[int], alloc: Sequence[Sequence[int]]
) -> Partition:
    """The partition of a cover assignment and allocation, read as by
    `separate`, its classes in index order: class i takes the alloc[j][i]
    lowest-id members of I(S) that the classes before it left.  Counts that
    do not hand out exactly each group raise ContractViolation; whether the
    classes are connected is for `solve_fpt_maxmin`'s one check to say."""
    groups = dec.classes_by_neighborhood
    if len(alloc) != len(groups):
        raise ContractViolation("counts must name exactly the neighborhood classes")
    decoded = [{v for p, v in enumerate(dec.cover) if cm >> p & 1} for cm in class_masks]
    for (s, members), counts in zip(groups.items(), alloc):
        if len(counts) != len(decoded) or min(counts) < 0 or sum(counts) != len(members):
            raise ContractViolation(
                f"neighborhood {sorted(s)} distributes {list(counts)} of {len(members)}"
            )
        at = 0
        for c, cnt in zip(decoded, counts):
            c.update(members[at : at + cnt])
            at += cnt
    return tuple(map(frozenset, decoded))


def _max_flow(
    supplies: list[int], demands: list[int], elig: list[list[int]]
) -> list[list[int]] | None:
    """Integral transport meeting every demand, or None: flow[j][i] units
    from group j (at most supplies[j]) to class i in elig[j].

    Edmonds-Karp on the flow matrix.  A search starts from the groups with
    supply left and ends at the first class reached with demand left; from
    class i it goes back along flow to the groups eligible for i, ascending.

    While some group with supply left is eligible for a class with demand
    left, the search visits every group with supply before any group it
    reaches backwards, so it ends at the first such pair, groups ascending
    and each elig row in order, and pushes min(supply, short) along it.  A
    push raises no supply and no demand, so one direct pass over the pairs
    in that order makes exactly those first augmentations, reading each row
    once; the search runs only on the demand the pass leaves.
    """
    m, k = len(supplies), len(demands)
    flow = [[0] * k for _ in range(m)]
    supply, short = list(supplies), list(demands)
    for j in range(m):
        have = supply[j]
        for i in elig[j]:
            if not have:
                break
            if short[i]:
                push = min(have, short[i])
                flow[j][i] += push
                short[i] -= push
                have -= push
        supply[j] = have
    if not any(short):
        return flow
    senders = [[j for j in range(m) if i in elig[j]] for i in range(k)]
    while any(short):
        came_from = {j: None for j in range(m) if supply[j] > 0}
        reached: dict[int, int] = {}
        queue = deque(came_from)
        end = None
        while queue and end is None:
            j = queue.popleft()
            for i in elig[j]:
                if i in reached:
                    continue
                reached[i] = j
                if short[i] > 0:
                    end = i
                    break
                for back in senders[i]:
                    if back not in came_from and flow[back][i] > 0:
                        came_from[back] = i
                        queue.append(back)
        if end is None:
            return None
        path, i = [], end
        while i is not None:
            path.append((reached[i], i))
            i = came_from[reached[i]]
        first = path[-1][0]
        push = min([short[end], supply[first]] + [flow[j][came_from[j]] for j, _ in path[:-1]])
        short[end] -= push
        supply[first] -= push
        for j, i in path:
            flow[j][i] += push
            if came_from[j] is not None:
                flow[j][came_from[j]] -= push
    return flow


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise BudgetExceeded("max-min solve time budget exceeded")


def _best_transport(
    supplies: list[int],
    bases: list[int],
    elig: list[list[int]],
    floor: int,
    cap_value: int,
) -> tuple[int, list[list[int]]] | None:
    """Largest t in (floor, cap_value] for which a transport lifts every class
    i to t units beyond bases[i], with the flow of the last feasible probe,
    which is the flow at t; None when the first probe, floor + 1, fails.
    A floor of -1 accepts any t >= 0."""

    def probe(t: int) -> list[list[int]] | None:
        return _max_flow(supplies, [max(0, t - b) for b in bases], elig)

    if floor >= cap_value or (flow := probe(floor + 1)) is None:
        return None
    lo = floor + 1
    hi = cap_value
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = probe(mid)
        if found is not None:
            lo, flow = mid, found
        else:
            hi = mid - 1
    return lo, flow


def _distribute(
    counts: list[int],
    elig: list[list[int]],
    bases: list[int],
    covers: list[tuple[int, list[int]]],
    cap_value: int,
    floor: int,
    deadline: float | None = None,
) -> tuple[int, list[list[int]]] | None:
    """Exact max-min completion of the stable-set counts for a fixed cover
    assignment, when it beats floor.

    covers lists (class, eligible group indices) pairs from the active pool
    cuts, each requiring at least one unit, repeats and implied ones included.
    Branch-and-bound: a node solves the transport without the covers, its
    forced units taken from supply and added to the bases, by binary search
    over (floor, cap_value]; that value bounds the node's subtree.  If the
    flow plus the forced units meets every cover it is the node's answer;
    otherwise the node branches on the unmet cover with the fewest groups, the
    earliest on a tie (never a repeat or a strict superset of an unmet cover
    of its class, met whenever that one is), forcing one unit from each of its
    groups with supply left in list order, raising the floor to the best value
    found, and stops once a branch reaches the bound.  Returns the best
    (value, allocation), leftover units handed to the smallest eligible
    classes, or None when nothing strictly beats floor (with floor -1, when
    the covers are unsatisfiable); raises BudgetExceeded once time.monotonic()
    reaches the deadline.
    """
    k = len(bases)
    m = len(counts)
    forced = [[0] * k for _ in range(m)]

    def node(floor: int) -> tuple[int, list[list[int]]] | None:
        _check_deadline(deadline)
        supplies = [counts[j] - sum(forced[j]) for j in range(m)]
        base_eff = [bases[i] + sum(row[i] for row in forced) for i in range(k)]
        relaxed = _best_transport(supplies, base_eff, elig, floor, cap_value)
        if relaxed is None:
            return None
        bound, flow = relaxed
        alloc = [[f + u for f, u in zip(fs, us)] for fs, us in zip(forced, flow)]
        unmet = min(
            ((i, groups) for i, groups in covers if not any(alloc[j][i] for j in groups)),
            key=lambda cover: len(cover[1]),
            default=None,
        )
        if unmet is None:
            return bound, alloc
        i, groups = unmet
        best = None
        for j in groups:
            if not supplies[j]:
                continue
            forced[j][i] += 1
            found = node(floor if best is None else best[0])
            forced[j][i] -= 1
            if found is not None:
                best = found
                if best[0] == bound:
                    break
        return best

    best = node(floor)
    del node  # a cycle through its own closure cell; free the node state now, not at gc
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


@dataclass
class FptResult:
    value: int
    classes: Partition
    model: FptModel
    nodes: int

    @property
    def cuts_added(self) -> int:
        return len(self.model.cuts)


def solve_fpt_maxmin(
    g: WeightedGraph,
    k: int,
    cover: Iterable[int] | None = None,
    max_seconds: float | None = None,
) -> FptResult:
    """Exact max-min connected k-partition of a uniformly weighted graph.

    Rejects non-uniform weights.  The search counts vertices; the value is
    the lightest class's count times the common weight.  The count is at
    most the cap: n // k, or 1 with k exceeding the cover size.  When k
    exceeds the cover size or the cap is at least 2, and a split of G's DFS
    tree reaches the cap, that split is the answer, with nodes 0 and no cuts.
    Otherwise cover vertices are assigned to classes depth-first (new
    classes opened in index order to break symmetry) and each complete
    assignment is finished by the exact count distribution, with lazy
    connectivity cuts repairing disconnected candidates; a leaf of a kind
    whose transport without covers already failed is skipped, which
    changes no node count, cut or witness.  The best leaf is decoded once;
    a decode fault, or an answer that is not a connected k-partition, is an
    InternalError.  Either answer is returned in `sort_classes` order.
    """
    if len(set(g.weights)) > 1:
        raise InputError("max-min solver handles uniform weights only")
    if not 2 <= k <= g.n:
        raise InputError(f"k must be in [2, {g.n}], got {k}")
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    dec = decompose(g, cover)
    # Once the input is checked, and before any shortcut, so a zero budget
    # stops every solve.
    _check_deadline(deadline)
    model = FptModel(dec=dec, k=k)
    xs = list(dec.cover)

    # No k-partition's lightest class beats n // k vertices.  With k above
    # the cover size some class holds no cover vertex, so it is a single
    # stable vertex: the cap is 1, which the split always reaches.  At a cap
    # of two or more, each class of the split is connected with two vertices
    # or more, so it holds an edge and hence a cover vertex: the shape of
    # every search witness.
    cap_value = g.n // k if k <= len(xs) else 1
    count, nodes = cap_value, 0
    classes = None
    if cap_value >= 2 or k > len(xs):
        classes = split_at_least(g, k, cap_value * g.weights[0])
    if classes is None:
        counts = [len(members) for members in dec.classes_by_neighborhood.values()]
        set_masks = dec.set_masks

        best_value = 0
        best: tuple[list[int], list[list[int]]] | None = None  # (class masks, allocation)
        # Cover positions by class; the first `used` classes are open.
        class_masks = [0] * k

        # Memo of the stable units that can attach to a class reaching a mask of
        # cover positions: counts and set_masks are fixed for the solve, so each
        # of at most 2^|X| masks is summed once.
        attach = functools.cache(
            lambda reach: sum(c for c, sm in zip(counts, set_masks) if sm & reach)
        )
        # A leaf's kind: the multiset of its classes' (size, mask of the groups
        # whose S meets the class).  The transport without covers sees only
        # that, up to relabelling the classes, and must beat best_value, which
        # only rises; so a kind it once refutes stays refuted.
        groups_of = functools.cache(
            lambda cm: sum(1 << j for j, sm in enumerate(set_masks) if sm & cm)
        )
        refuted: set[tuple[tuple[int, int], ...]] = set()

        def upper_bound(pos: int, used: int) -> int:
            rem = (1 << len(xs)) - (1 << pos)
            remaining = len(xs) - pos
            ub = cap_value
            for cm in class_masks[:used]:
                ub = min(ub, cm.bit_count() + remaining + attach(cm | rem))
            return ub

        def leaf() -> None:
            nonlocal best_value, best
            bases = [cm.bit_count() for cm in class_masks]
            kind = tuple(sorted(zip(bases, map(groups_of, class_masks))))
            if kind in refuted:
                return
            elig = [
                [i for i in range(k) if sm & class_masks[i]] for sm in set_masks
            ]
            # Covers of the pooled cuts that bind here (u and v in class i, no
            # vertex of Z there), then of each pass's fresh cuts, which are
            # violated and so bind.
            binding = model.cuts
            covers = []
            while True:
                for i, need, avoid, groups in binding:
                    cm = class_masks[i]
                    if cm & (need | avoid) != need:
                        continue
                    cover = [j for j in groups if set_masks[j] & cm]
                    if not cover:
                        return
                    covers.append((i, cover))
                res = _distribute(counts, elig, bases, covers, cap_value, best_value, deadline)
                if res is None:
                    if not covers:
                        refuted.add(kind)
                    return
                value, alloc = res
                cuts = separate(dec, class_masks, alloc)
                if not cuts:
                    best_value, best = value, (class_masks[:], alloc)
                    return
                if any(cut in model.cuts for cut in cuts):
                    raise InternalError("separation repeated a pooled cut")
                model.cuts += cuts
                binding = cuts

        def dfs(pos: int, used: int) -> None:
            nonlocal nodes
            nodes += 1
            if nodes % 256 == 0:
                _check_deadline(deadline)
            # upper_bound starts from the cap, so this also ends the search once
            # best_value reaches it.
            if used + (len(xs) - pos) < k or upper_bound(pos, used) <= best_value:
                return
            if pos == len(xs):
                leaf()
                return
            bit = 1 << pos
            for c in range(min(used + 1, k)):
                class_masks[c] |= bit
                dfs(pos + 1, used + (1 if c == used else 0))
                class_masks[c] &= ~bit

        dfs(0, 0)
        del dfs  # a cycle through its own closure cell; free the search now, not at gc
        if best is None:
            raise InternalError("search found no connected partition")
        try:
            count, classes = best_value, reconstruct(dec, *best)
        except ContractViolation as exc:
            raise InternalError(f"allocation broke reconstruct's contract: {exc}") from exc
    report = validate(g, classes, k)
    if report:
        raise InternalError("answer is not a connected partition: " + "; ".join(report))
    return FptResult(count * g.weights[0], sort_classes(g, classes), model, nodes)
