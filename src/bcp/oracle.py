"""Exhaustive ground truth for small instances.

Enumerates every connected k-partition exactly once (classes unordered) via
restricted-growth assignment over vertices in id order, pruning branches as
soon as a class can no longer become connected.  On top of the stream sit the
exact min-max / max-min optima.
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
    n = g.n
    if not 1 <= k <= n:
        raise ContractViolation(f"k must be in [1, {n}], got {k}")
    if n > MAX_VERTICES:
        raise BudgetExceeded(f"{n} vertices exceeds enumeration budget of {MAX_VERTICES}")
    nbr = tuple(
        sum(1 << w for w in g.adjacency[v]) for v in range(n)
    )
    full = (1 << n) - 1
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    yielded = 0
    ticks = 0

    masks: list[int] = [1]  # vertex 0 opens class 0
    nbrs: list[int] = [nbr[0]]

    def decode() -> Partition:
        return tuple(
            frozenset(v for v in range(n) if m >> v & 1) for m in masks
        )

    def recurse(v: int) -> Iterator[Partition]:
        nonlocal yielded, ticks
        ticks += 1
        if deadline is not None and ticks % 512 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("enumeration time budget exceeded")
        unassigned = full & ~((1 << v) - 1)
        if v == n:
            if len(masks) == k and all(_mask_connected(nbr, m) for m in masks):
                yielded += 1
                if yielded > MAX_PARTITIONS:
                    raise BudgetExceeded(f"more than {MAX_PARTITIONS} partitions")
                yield decode()
            return
        if len(masks) + (n - v) < k:
            return
        # A class with no unassigned neighbor can never change again: if it
        # is disconnected now, the whole branch is dead.
        for m, nb in zip(masks, nbrs):
            if nb & unassigned == 0 and not _mask_connected(nbr, m):
                return
        bit = 1 << v
        for c in range(len(masks)):
            if nbrs[c] & unassigned == 0:
                continue  # closed class: v could never reconnect to it
            saved = nbrs[c]
            masks[c] |= bit
            nbrs[c] |= nbr[v]
            yield from recurse(v + 1)
            masks[c] &= ~bit
            nbrs[c] = saved
        if len(masks) < k:
            masks.append(bit)
            nbrs.append(nbr[v])
            yield from recurse(v + 1)
            masks.pop()
            nbrs.pop()

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
    max (heaviest class) is minimized, min (lightest class) maximized."""
    flip = 1 if objective is max else -1
    best: tuple[int, tuple, Partition] | None = None
    for p in enumerate_connected_kpartitions(g, k, max_seconds):
        value = objective(g.weight(c) for c in p)
        if best is None or flip * value < flip * best[0]:
            best = (value, _signature(p), p)
        elif value == best[0]:
            sig = _signature(p)
            if sig < best[1]:
                best = (value, sig, p)
    assert best is not None  # every connected graph has a connected k-partition
    return best[0], best[2]


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
