"""Vertex-weighted graph representation and connectivity primitives.

Vertices are dense integers 0..n-1.  Graphs are simple, undirected and
connected, with positive integer vertex weights.  All operations are pure:
they never mutate their inputs, so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Sequence

from .errors import ContractViolation, InputError

VertexSet = frozenset[int]


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    total_weight: int = field(init=False)

    def __post_init__(self) -> None:
        """Check the weights and derive their total; the adjacency is taken
        as given, so build graphs from outside input with `from_edges`."""
        if len(self.weights) != self.n:
            raise InputError(f"expected {self.n} weights, got {len(self.weights)}")
        for v, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise InputError(f"vertex {v} has nonpositive weight {w}")
        object.__setattr__(self, "total_weight", sum(self.weights))

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[int] | None = None,
    ) -> "WeightedGraph":
        """Build and validate a graph; rejects loops, duplicates, bad weights
        and disconnected inputs."""
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
        seen: set[tuple[int, int]] = set()
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            neighbors[u].append(v)
            neighbors[v].append(u)
        adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
        g = cls(n, adjacency, (1,) * n if weights is None else tuple(weights))
        if not is_connected(g, frozenset(range(n))):
            raise InputError("graph is not connected")
        return g

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def weight(self, s: Iterable[int]) -> int:
        return sum(self.weights[v] for v in s)

    def with_weights(self, weights: Sequence[int]) -> "WeightedGraph":
        """Same topology, new weights (validated); the adjacency is shared."""
        return WeightedGraph(self.n, self.adjacency, tuple(weights))


def components(g: WeightedGraph, s: VertexSet) -> list[VertexSet]:
    """Connected components of G[s], ordered by smallest member id.

    The returned sets partition s; each induces a connected subgraph.
    """
    if not s:
        raise ContractViolation("components() requires a nonempty vertex set")
    remaining = set(s)
    out: list[VertexSet] = []
    for v in sorted(s):
        if v in remaining:
            # Earlier components have no edge into this one, so searching
            # the shrinking rest finds the same vertices as searching s.
            comp = frozenset(_dfs_tree(g, remaining, v)[0])
            out.append(comp)
            remaining -= comp
    return out


def heaviest_piece(
    g: WeightedGraph, s: VertexSet, v: int, weight: int
) -> tuple[VertexSet, int, VertexSet]:
    """The heaviest component H of G[s - v], its weight, and U = s - H.

    G[s] must be connected, contain v and another vertex, and weigh
    `weight`.  H is `sort_classes(g, components(g, s - {v}))[-1]`: the
    heaviest, ties to the larger smallest id.  Every component touches v,
    so one search starts from each neighbour of v in s; each search takes
    one vertex per round, two that meet merge, and a search that runs dry
    has found a whole component.  Once at most one search still grows, the
    rest of s - v is one component and is not walked.  So the searches take
    at most deg(v) times as many steps as the largest finished piece has
    vertices, however large s is (Even & Shiloach 1981).
    """
    adjacency, weights = g.adjacency, g.weights
    owner = {v: -1}  # claimed vertex -> index of the search that claimed it
    root: list[int] = []  # union-find over searches
    stacks: list[list[int]] = []
    found: list[list[int]] = []
    found_weight: list[int] = []
    for x in adjacency[v]:
        if x in s:
            owner[x] = len(root)
            root.append(len(root))
            stacks.append([x])
            found.append([x])
            found_weight.append(weights[x])
    active = list(range(len(root)))
    if not active:
        raise ContractViolation("heaviest_piece() requires a connected set of >= 2 vertices")
    finished: list[tuple[int, int, list[int]]] = []  # (weight, smallest id, members)
    while len(active) > 1:
        growing = []
        for a in active:
            if root[a] != a:
                continue  # merged into another search this round
            stack = stacks[a]
            for y in adjacency[stack.pop()]:
                b = owner.get(y)
                if b is None:
                    if y in s:
                        owner[y] = a
                        stack.append(y)
                        found[a].append(y)
                        found_weight[a] += weights[y]
                    continue
                while b >= 0 and root[b] != b:
                    b = root[b]
                if b >= 0 and b != a:
                    root[b] = a
                    stack += stacks[b]
                    found[a] += found[b]
                    found_weight[a] += found_weight[b]
            if stack:
                growing.append(a)
            else:
                finished.append((found_weight[a], min(found[a]), found[a]))
        active = [a for a in growing if root[a] == a]

    best = max(finished, default=(0, -1, []))
    if active:
        cut = frozenset({v}.union(*(members for _, _, members in finished)))
        rest_weight = weight - weights[v] - sum(w for w, _, _ in finished)
        # Only a tie needs the rest's smallest id, so only a tie looks it up.
        if rest_weight > best[0] or (rest_weight == best[0] and min(s - cut) > best[1]):
            return s - cut, rest_weight, cut
    heavy = frozenset(best[2])
    return heavy, best[0], s - heavy


def is_connected(g: WeightedGraph, s: VertexSet) -> bool:
    """True iff s is nonempty and G[s] has exactly one component."""
    if not s:
        return False
    root = min(s)
    return len(_dfs_tree(g, s, root)[0]) == len(s)


def mask_reach(nbr: Sequence[int], within: int) -> int:
    """Bitmask flood fill: the bits of `within` reachable from its lowest bit
    through bits of `within`, where nbr[b] is the neighbour mask of bit b;
    0 when `within` is 0.  `within` may carry bits at or above n, as the
    oracle's unassigned mask -1 << v does: no neighbour mask reaches them."""
    seed = within & -within
    reach = seed
    frontier = seed
    while frontier:
        grown = 0
        f = frontier
        while f:
            b = f & -f
            grown |= nbr[b.bit_length() - 1]
            f ^= b
        frontier = grown & within & ~reach
        reach |= frontier
    return reach


def _dfs_tree(
    g: WeightedGraph, s: Container[int], root: int
) -> tuple[list[int], dict[int, int]]:
    """Iterative DFS preorder inside the induced subgraph G[s], ascending
    neighbor ids explored first, plus the parent map of its spanning tree."""
    parent: dict[int, int] = {root: root}
    order = [root]
    stack: list[tuple[int, Iterator[int]]] = [(root, iter(g.adjacency[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w in s and w not in parent:
                parent[w] = v
                order.append(w)
                stack.append((w, iter(g.adjacency[w])))
                break
        else:
            stack.pop()
    return order, parent


def non_cut_vertex(g: WeightedGraph, s: VertexSet) -> int:
    """A vertex of s whose removal keeps G[s] connected, at the cost of one
    DFS: the first pick of `non_cut_vertices`."""
    return next(non_cut_vertices(g, s))


def non_cut_vertices(g: WeightedGraph, s: VertexSet) -> Iterator[int]:
    """Vertices of s to remove one by one, each keeping the rest connected,
    until min(s) is left: the DFS preorder of s from min(s), backwards and
    without the root.  The last vertex of a preorder is a leaf of the DFS
    tree, so removing it keeps the rest connected, and the DFS of the rest
    visits the same vertices in the same order.  So one DFS, run at the
    first pick, serves every pick."""
    if len(s) < 2:
        raise ContractViolation("non_cut_vertex() requires at least two vertices")
    order = _dfs_tree(g, s, min(s))[0]
    if len(order) != len(s):
        raise ContractViolation("non_cut_vertex() requires a connected vertex set")
    yield from order[:0:-1]


def split_two(g: WeightedGraph, s: VertexSet) -> tuple[VertexSet, VertexSet]:
    """Split a connected set into two connected halves.

    Deletes one spanning-tree edge of G[s], chosen to minimize the weight
    imbalance of the two sides (ties: lowest edge).  The half containing
    min(s) comes first.  Any tree edge yields a correct split; the balanced
    choice is a quality heuristic only.
    """
    if len(s) < 2:
        raise ContractViolation("split_two() requires at least two vertices")
    root = min(s)
    order, parent = _dfs_tree(g, s, root)
    if len(order) != len(s):
        raise ContractViolation("split_two() requires a connected vertex set")

    # One reverse pass sums the weight and size of every subtree; a subtree
    # is a contiguous run of the preorder, starting at its root.
    weight = {v: g.weights[v] for v in s}
    size = dict.fromkeys(s, 1)
    for v in reversed(order[1:]):
        weight[parent[v]] += weight[v]
        size[parent[v]] += size[v]
    total = weight[root]

    def imbalance_then_edge(at: int) -> tuple[int, int, int]:
        v = order[at]
        u = parent[v]
        return abs(total - 2 * weight[v]), min(u, v), max(u, v)

    at = min(range(1, len(order)), key=imbalance_then_edge)
    below = frozenset(order[at : at + size[order[at]]])
    return s - below, below


def split_at_least(g: WeightedGraph, k: int, bound: int) -> list[VertexSet] | None:
    """k connected classes, each weighing at least `bound`, cut from G's DFS
    tree from vertex 0, or None where this greedy finds none.

    The max-min tree greedy (Perl & Schach 1981): walking the preorder
    backwards, a vertex's residue is its weight plus its uncut children's
    residues, and its subtree is cut off once the residue reaches `bound`,
    at most k - 1 times.  The root keeps the rest, which must reach `bound`
    too.  Each cut piece and the root's rest hold their tree's top vertex
    and its uncut descendants, so each is connected.  At a bound no heavier
    than any vertex it cuts the last k - 1 preorder vertices as singletons:
    the classes of `minmax.split_off_singletons(g, (V,), k - 1)`.
    """
    order, parent = _dfs_tree(g, range(g.n), 0)
    residue = list(g.weights)
    cut: set[int] = set()
    for v in reversed(order[1:]):
        if len(cut) < k - 1 and residue[v] >= bound:
            cut.add(v)
        else:
            residue[parent[v]] += residue[v]
    if len(cut) < k - 1 or residue[0] < bound:
        return None
    top = {0: 0}  # vertex -> the top vertex of its piece
    pieces: dict[int, list[int]] = {0: [0]}
    for v in order[1:]:
        t = top[v] = v if v in cut else top[parent[v]]
        pieces.setdefault(t, []).append(v)
    return [frozenset(piece) for piece in pieces.values()]


def boundary_neighbors(g: WeightedGraph, frm: VertexSet, inside: VertexSet) -> list[int]:
    """Vertices of `inside` adjacent to at least one vertex of `frm`,
    ascending ids.  The two sets must be disjoint."""
    if frm & inside:
        raise ContractViolation("boundary_neighbors() requires disjoint sets")
    return sorted({v for u in frm for v in g.adjacency[u] if v in inside})
