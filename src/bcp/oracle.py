"""Exhaustive ground truth for small instances.

Enumerates every connected k-partition exactly once (classes unordered) via
restricted-growth assignment over vertices in id order, keeping only those
whose every class weighs within a window [lo, hi].  One rule cuts a node: a
class is heavier than hi or cannot reach all its members from its smallest
vertex through itself and the unassigned vertices; a closed class (no
unassigned neighbour, so it never changes again) is lighter than lo; or the
unassigned weight is below the need, (k - opened)·lo plus what the open classes
lack of lo, or above the room, (k - opened)·hi plus what they may still take up
to hi.  Enumeration runs the window [0, w(G)], which cuts no completion.

The exact optima run the same search as a strict branch and bound from
[0, w(G)]: after each partition found, min-max sets hi to its value - 1,
and max-min sets lo to its value + 1 (weights are integers, so the step is
exact), and the last partition found is the optimum.  The search visits
restricted-growth strings (vertex v's label is the index of its class in
order of smallest vertex) in lexicographic order, and the window admits
the first optimum in that order until it is found and nothing after it;
so the witness is the optimum with the lexicographically smallest
restricted-growth string.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceeded, ContractViolation, InternalError
from .graph import WeightedGraph, mask_reach
from .partition import Partition, validate

# Hard caps for exhaustive enumeration; exceeding one, or the optional time
# budget, raises BudgetExceeded rather than truncating silently.
MAX_VERTICES = 16
MAX_PARTITIONS = 2_000_000


def enumerate_connected_kpartitions(
    g: WeightedGraph, k: int, max_seconds: float | None = None
) -> Iterator[Partition]:
    """Yield each connected k-partition of g exactly once.

    Classes are unordered; symmetry is killed by keeping vertex 0 in the
    first class and opening new classes only in index order.
    """
    for _, p in _search(g, k, max_seconds, [0, g.total_weight]):
        yield p


def _search(
    g: WeightedGraph, k: int, max_seconds: float | None, window: list[int]
) -> Iterator[tuple[tuple[int, ...], Partition]]:
    """Yield (class weights, partition) for each connected k-partition of g
    whose every class weighs within window = [lo, hi].  The caller may
    narrow the window between yields; each node reads it afresh."""
    n = g.n
    if not 1 <= k <= n:
        raise ContractViolation(f"k must be in [1, {n}], got {k}")
    if n > MAX_VERTICES:
        raise BudgetExceeded(f"{n} vertices exceeds enumeration budget of {MAX_VERTICES}")
    nbr = tuple(sum(1 << w for w in g.adjacency[v]) for v in range(n))
    weight = g.weights
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    yielded = 0
    ticks = 0

    # One (vertex mask, neighbour mask, weight) per class; vertex 0 opens one.
    classes: list[tuple[int, int, int]] = [(1, nbr[0], weight[0])]

    def recurse(v: int) -> Iterator[tuple[tuple[int, ...], Partition]]:
        nonlocal yielded, ticks
        ticks += 1
        # The first node reads the clock too, so a small search still
        # honours its deadline.
        if deadline is not None and ticks % 512 == 1 and time.monotonic() >= deadline:
            raise BudgetExceeded("enumeration time budget exceeded")
        lo, hi = window
        opened = len(classes)
        unassigned = -1 << v  # vertices v..n-1, as masks hold only bits below n
        # The rule of the module docstring: a closed class reaches only
        # through itself; at a leaf every class is closed, need = room = 0.
        need = (k - opened) * lo
        room = (k - opened) * hi
        left = g.total_weight  # less every class below: the unassigned weight
        for m, nb, wc in classes:
            if wc > hi or mask_reach(nbr, m | unassigned) & m != m:
                return
            left -= wc
            if nb & unassigned:
                room += hi - wc
                if wc < lo:
                    need += lo - wc
            elif wc < lo:
                return
        if not need <= left <= room:
            return
        if v == n:  # k classes: every node leaves enough vertices to open them
            yielded += 1
            if yielded > MAX_PARTITIONS:
                raise BudgetExceeded(f"more than {MAX_PARTITIONS} partitions")
            yield tuple(wc for _, _, wc in classes), tuple(
                frozenset(u for u in range(n) if m >> u & 1) for m, _, _ in classes
            )
            return
        bit = 1 << v
        wv = weight[v]
        cap = hi - wv  # heaviest class that may take v
        # v may join a class only if the n - v - 1 vertices after it can
        # still open the classes missing.
        for c in range(opened if opened + (n - v) > k else 0):
            m, nb, wc = old = classes[c]
            if nb & unassigned == 0 or wc > cap:
                continue  # closed, so v could never reconnect to it; or too heavy
            classes[c] = (m | bit, nb | nbr[v], wc + wv)
            yield from recurse(v + 1)
            classes[c] = old
        if opened < k and cap >= 0:
            classes.append((bit, nbr[v], wv))
            yield from recurse(v + 1)
            classes.pop()

    yield from recurse(1)
    del recurse  # a cycle through its own closure cell; free the search now, not at gc


def _optimum(
    g: WeightedGraph,
    k: int,
    max_seconds: float | None,
    objective: Callable[[Iterable[int]], int],
) -> tuple[int, Partition]:
    """Optimum over all connected k-partitions of the class-weight objective:
    max is minimized by lowering hi below each value found, min maximized by
    raising lo above it.  Each partition found beats the last, so the last is
    the optimum: InternalError unless it is a connected k-partition of its value."""
    window = [0, g.total_weight]
    side, step = (1, -1) if objective is max else (0, 1)
    value, p = 0, None
    for weights, p in _search(g, k, max_seconds, window):
        value = objective(weights)
        window[side] = value + step
    if p is None:  # a connected graph always has a connected k-partition
        raise InternalError("search found no connected partition")
    report = validate(g, p, k)
    if report or value != objective(map(g.weight, p)):
        reason = "; ".join(report) or f"its class weights' {objective.__name__} differs"
        raise InternalError(f"witness of value {value} is wrong: {reason}")
    return value, p


def exact_minmax(
    g: WeightedGraph, k: int, max_seconds: float | None = None
) -> tuple[int, Partition]:
    """Minimum heaviest-class weight over all connected k-partitions, with a
    witness (ties: lexicographically smallest restricted-growth string)."""
    return _optimum(g, k, max_seconds, max)


def exact_maxmin(
    g: WeightedGraph, k: int, max_seconds: float | None = None
) -> tuple[int, Partition]:
    """Maximum lightest-class weight over all connected k-partitions, with a
    witness (ties: lexicographically smallest restricted-growth string)."""
    return _optimum(g, k, max_seconds, min)
