"""Exhaustive ground truth for small instances.

Enumerates every connected k-partition exactly once (classes unordered) via
restricted-growth assignment over vertices in id order, pruning branches as
soon as a class can no longer become connected.

The exact min-max / max-min optima run the same search as a branch and
bound: the best value found so far, B, cuts every branch whose completions
are all strictly worse than B.  A branch that can only tie B is kept, so
every optimal partition is still reached and the witness is still the
optimum with the lexicographically smallest class signature.  Cutting ties
too would prune far more where ties dominate (unit weights), but it would
change which witness is found.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceeded, ContractViolation
from .graph import WeightedGraph
from .partition import Partition

# Hard caps for exhaustive enumeration; exceeding one, or the optional time
# budget, raises BudgetExceeded rather than truncating silently.
MAX_VERTICES = 14
MAX_PARTITIONS = 2_000_000


def _mask_connected(nbr: tuple[int, ...], mask: int) -> bool:
    if mask == 0:
        return False
    seed = mask & -mask
    reach = seed
    frontier = seed
    while frontier:
        grown = 0
        f = frontier
        while f:
            b = f & -f
            grown |= nbr[b.bit_length() - 1]
            f ^= b
        frontier = grown & mask & ~reach
        reach |= frontier
    return reach == mask


def enumerate_connected_kpartitions(
    g: WeightedGraph, k: int, max_seconds: float | None = None
) -> Iterator[Partition]:
    """Yield each connected k-partition of g exactly once.

    Classes are unordered; symmetry is killed by keeping vertex 0 in the
    first class and opening new classes only in index order.
    """
    # Every lightest class weighs at least 0, so a floor of 0 cuts nothing.
    for _, p in _search(g, k, max_seconds, min, [0]):
        yield p


def _search(
    g: WeightedGraph,
    k: int,
    max_seconds: float | None,
    objective: Callable[[Iterable[int]], int],
    bound: list[int],
) -> Iterator[tuple[int, Partition]]:
    """Yield (objective over the class weights, partition) for each connected
    k-partition of g whose value is not strictly worse than bound[0].

    max (heaviest class) is minimized, min (lightest class) maximized.  The
    caller may tighten bound[0] between yields; each node reads it afresh.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ContractViolation(f"k must be in [1, {n}], got {k}")
    if n > MAX_VERTICES:
        raise BudgetExceeded(f"{n} vertices exceeds enumeration budget of {MAX_VERTICES}")
    nbr = tuple(
        sum(1 << w for w in g.adjacency[v]) for v in range(n)
    )
    weight = g.weights
    rest = [0] * (n + 1)  # rest[v]: weight of the unassigned vertices v..n-1
    for v in range(n - 1, -1, -1):
        rest[v] = rest[v + 1] + weight[v]
    minimize = objective is max
    full = (1 << n) - 1
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    yielded = 0
    ticks = 0

    masks: list[int] = [1]  # vertex 0 opens class 0
    nbrs: list[int] = [nbr[0]]
    weights: list[int] = [weight[0]]

    known = bytearray(1 << n)  # per class mask: 0 not seen, 1 disconnected, 2 connected

    def connected(m: int) -> bool:
        if not known[m]:
            known[m] = 1 + _mask_connected(nbr, m)
        return known[m] == 2

    def decode() -> Partition:
        return tuple(
            frozenset(v for v in range(n) if m >> v & 1) for m in masks
        )

    def recurse(v: int) -> Iterator[tuple[int, Partition]]:
        nonlocal yielded, ticks
        ticks += 1
        # The first node reads the clock too, so a small search still
        # honours its deadline.
        if deadline is not None and ticks % 512 == 1 and time.monotonic() >= deadline:
            raise BudgetExceeded("enumeration time budget exceeded")
        b = bound[0]
        if v == n:  # k classes: every node leaves enough vertices to open them
            value = objective(weights)
            if (value <= b if minimize else value >= b) and all(
                connected(m) for m in masks
            ):
                yielded += 1
                if yielded > MAX_PARTITIONS:
                    raise BudgetExceeded(f"more than {MAX_PARTITIONS} partitions")
                yield value, decode()
            return
        opened = len(masks)
        unassigned = full & ~((1 << v) - 1)
        # A class with no unassigned neighbor is closed: it can never change
        # again, so if it is disconnected now the whole branch is dead.  The
        # other cuts drop only branches whose every completion is strictly
        # worse than b.  Slack is, for min-max, the weight the classes may
        # still take without passing b; for max-min, the weight they still
        # lack to reach b.  Both count the classes not yet opened.
        slack = (k - opened) * b
        if minimize:
            for m, nb, wc in zip(masks, nbrs, weights):
                if wc > b:
                    return
                if nb & unassigned:
                    slack += b - wc
                elif not connected(m):
                    return
            if rest[v] > slack:
                return
        else:
            for m, nb, wc in zip(masks, nbrs, weights):
                if nb & unassigned:
                    if wc < b:
                        slack += b - wc
                elif wc < b or not connected(m):
                    return
            if rest[v] < slack:
                return
        bit = 1 << v
        wv = weight[v]
        cap = b - wv if minimize else rest[0]  # heaviest class that may take v
        # v may join a class only if the n - v - 1 vertices after it can
        # still open the classes missing.
        for c in range(opened if opened + (n - v) > k else 0):
            if nbrs[c] & unassigned == 0 or weights[c] > cap:
                continue  # closed, so v could never reconnect to it; or too heavy
            saved = nbrs[c]
            masks[c] |= bit
            nbrs[c] |= nbr[v]
            weights[c] += wv
            yield from recurse(v + 1)
            masks[c] &= ~bit
            nbrs[c] = saved
            weights[c] -= wv
        if opened < k and cap >= 0:
            masks.append(bit)
            nbrs.append(nbr[v])
            weights.append(wv)
            yield from recurse(v + 1)
            masks.pop()
            nbrs.pop()
            weights.pop()

    yield from recurse(1)


def _signature(p: Partition) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(c)) for c in p))


def _optimum(
    g: WeightedGraph,
    k: int,
    max_seconds: float | None,
    objective: Callable[[Iterable[int]], int],
) -> tuple[int, Partition]:
    """Optimum over all connected k-partitions of the class-weight objective:
    max (heaviest class) is minimized, min (lightest class) maximized.

    The search starts from a bound that every partition meets (w(G) for
    min-max, 0 for max-min) and is then bounded by the best value so far.
    It never yields a worse value, so each value ties or improves the best.
    """
    bound = [g.total_weight if objective is max else 0]
    best: tuple[tuple, Partition] | None = None
    for value, p in _search(g, k, max_seconds, objective, bound):
        sig = _signature(p)
        if best is None or value != bound[0] or sig < best[0]:
            bound[0] = value
            best = (sig, p)
    assert best is not None  # every connected graph has a connected k-partition
    return bound[0], best[1]


def exact_minmax(
    g: WeightedGraph, k: int, max_seconds: float | None = None
) -> tuple[int, Partition]:
    """Minimum heaviest-class weight over all connected k-partitions, with a
    witness (ties: lexicographically smallest class signature)."""
    return _optimum(g, k, max_seconds, max)


def exact_maxmin(
    g: WeightedGraph, k: int, max_seconds: float | None = None
) -> tuple[int, Partition]:
    """Maximum lightest-class weight over all connected k-partitions, with a
    witness (ties: lexicographically smallest class signature)."""
    return _optimum(g, k, max_seconds, min)
