"""Weight scaling: trade an epsilon of solution quality for a weight total
polynomial in the graph order.

Scaled weights are w_hat(v) = ceil(w(v)/lambda) with lambda = eps*theta/|V|
and theta the maximum weight.  lambda is kept as an exact fraction and the
rounding is exact integer arithmetic, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation, InputError
from .graph import WeightedGraph
from .minmax import BcpkResult, minmax_bcpk


@dataclass(frozen=True)
class ScaledInstance:
    base: WeightedGraph
    theta: int
    lam: Fraction
    scaled_weights: tuple[int, ...]

    def graph(self) -> WeightedGraph:
        """The base topology under the scaled weights."""
        return self.base.with_weights(self.scaled_weights)


def scale(g: WeightedGraph, eps: Fraction) -> ScaledInstance:
    """Build the min-max scaled instance; rejects eps <= 0."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError(f"epsilon must be positive, got {eps}")
    theta = max(g.weights)
    lam = eps * theta / g.n
    scaled = tuple(math.ceil(Fraction(w) / lam) for w in g.weights)
    return ScaledInstance(g, theta, lam, scaled)


def eps_minmax_bcpk(g: WeightedGraph, k: int, eps_prime: Fraction) -> BcpkResult:
    """Polynomial (k/2 + eps')-approximation for min-max BCP_k.

    Scales with eps = eps'/(k/2), solves the scaled instance with the
    pseudo-polynomial k/2-approximation, and returns that partition; its
    guarantee holds under the original weights.
    """
    if not 3 <= k <= g.n:
        raise ContractViolation(f"k must be in [3, {g.n}], got {k}")
    eps_prime = Fraction(eps_prime)
    if eps_prime <= 0:
        raise InputError(f"epsilon must be positive, got {eps_prime}")
    return minmax_bcpk(scale(g, eps_prime / Fraction(k, 2)).graph(), k)
