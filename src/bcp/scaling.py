"""Weight scaling: trade an epsilon of solution quality for a weight total
polynomial in the graph order.

Scaled weights are w_hat(v) = ceil(w(v)/lambda) with lambda = eps*theta/|V|
and theta the maximum weight.  lambda is kept as an exact fraction and the
rounding is exact integer arithmetic, so runs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContractViolation, InputError
from .graph import WeightedGraph
from .minmax import BcpkResult, Certificate, minmax_bcpk
from .partition import sort_classes, w_plus


def scale(g: WeightedGraph, eps: Fraction) -> WeightedGraph:
    """g's topology under the scaled weights; rejects eps <= 0."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError(f"epsilon must be positive, got {eps}")
    lam = eps * max(g.weights) / g.n
    return g.with_weights([-(-w * lam.denominator // lam.numerator) for w in g.weights])


def eps_minmax_bcpk(g: WeightedGraph, k: int, eps_prime: Fraction) -> BcpkResult:
    """Polynomial (k/2 + eps')-approximation for min-max BCP_k.

    Scales with eps = eps'/(k/2), solves the scaled instance with the
    pseudo-polynomial k/2-approximation, and returns that partition; its
    guarantee holds under the original weights.  The certificate is read
    under those weights too: RatioHalfW when it holds there, else Scaled.
    """
    if not 3 <= k <= g.n:
        raise ContractViolation(f"k must be in [3, {g.n}], got {k}")
    eps_prime = Fraction(eps_prime)
    if eps_prime <= 0:
        raise InputError(f"epsilon must be positive, got {eps_prime}")
    result = minmax_bcpk(scale(g, eps_prime / Fraction(k, 2)), k)
    half = 2 * w_plus(g, result.classes) <= g.total_weight
    cert = Certificate.RATIO_HALF_W if half else Certificate.SCALED
    return BcpkResult(sort_classes(g, result.classes), cert, None, result.iterations)
