"""Connected k-partitions: validation, the weight-ordering convention for
3-partitions, and the two lower bounds on the min-max optimum.

A partition is a tuple of frozensets of vertex ids.  All arithmetic is exact
(integers and fractions); no floating point appears on correctness paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ContractViolation
from .graph import VertexSet, WeightedGraph, is_connected

Partition = tuple[VertexSet, ...]


def w_plus(g: WeightedGraph, p: Partition) -> int:
    """Weight of the heaviest class."""
    return max(g.weight(c) for c in p)


def validate(g: WeightedGraph, p: Sequence[Iterable[int]], k: int) -> list[str]:
    """Report every way p fails to be a connected k-partition of g.

    An empty report means p is valid.
    """
    report: list[str] = []
    classes = [frozenset(c) for c in p]
    if len(classes) != k:
        report.append(f"expected {k} classes, got {len(classes)}")
    covered: set[int] = set()
    for idx, c in enumerate(classes):
        if not c:
            report.append(f"class {idx} is empty")
            continue
        overlap = sorted(c & covered)
        if overlap:
            report.append(f"class {idx} overlaps earlier classes on {overlap}")
        covered |= c
        out_of_range = sorted(v for v in c if not 0 <= v < g.n)
        if out_of_range:
            report.append(f"class {idx} has unknown vertices {out_of_range}")
        elif not is_connected(g, c):
            report.append(f"class {idx} ({sorted(c)}) is disconnected")
    missing = sorted(set(range(g.n)) - covered)
    if missing:
        report.append(f"vertices {missing} are uncovered")
    return report


def sort_classes(g: WeightedGraph, p: Iterable[VertexSet]) -> Partition:
    """Classes sorted by (weight, smallest member id) ascending."""
    return tuple(sorted(p, key=lambda c: (g.weight(c), min(c))))


def order3(g: WeightedGraph, p: Sequence[Iterable[int]]) -> Partition:
    """The weight-ordered form of a connected 3-partition.

    Ties between equal-weight classes are broken by smallest member id, so
    the result is deterministic and the operation idempotent.
    """
    report = validate(g, p, 3)
    if report:
        raise ContractViolation("order3() needs a valid 3-partition: " + "; ".join(report))
    return sort_classes(g, (frozenset(c) for c in p))


def average_weight_bound(g: WeightedGraph, k: int) -> Fraction:
    """w(G)/k as an exact rational: no connected k-partition's heaviest class
    can weigh less than the average."""
    if not 1 <= k <= g.n:
        raise ContractViolation(f"k must be in [1, {g.n}], got {k}")
    return Fraction(g.total_weight, k)


@dataclass(frozen=True)
class StarCenterCertificate:
    """Optimality certificate built around a cut vertex u.

    comps holds the components of G-u sorted by (weight, smallest id)
    ascending; ell is their count.  `cut_vertex_bound` relies on that
    order to take the lightest components as a prefix.
    """

    u: int
    comps: tuple[VertexSet, ...]

    @property
    def ell(self) -> int:
        return len(self.comps)


def cut_vertex_bound(g: WeightedGraph, k: int, star: StarCenterCertificate) -> int:
    """Lower bound on the min-max optimum from a star certificate's cut vertex u.

    If removing u leaves ell >= k-1 components, the class containing u in any
    connected k-partition must absorb the ell-k+1 lightest of them, so its
    weight is at least w(u) plus their total: the first ell-k+1 of the
    certificate's ascending components.
    """
    ell = star.ell
    if ell < max(2, k - 1):
        raise ContractViolation(
            f"vertex {star.u} leaves {ell} components; need a cut vertex with >= {k - 1}"
        )
    return g.weights[star.u] + sum(g.weight(c) for c in star.comps[: ell - k + 1])
