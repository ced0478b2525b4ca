"""Balanced connected k-partition of vertex-weighted graphs.

Solvers for the min-max objective (a pseudo-polynomial k/2-approximation and
its polynomial scaled variant), an exhaustive exact oracle for both
objectives, and an exact vertex-cover-parameterized solver for the
unweighted max-min objective.  Everything else lives in the submodules.
"""

from .errors import (
    BcpError,
    BudgetExceeded,
    ContractViolation,
    InputError,
    InternalError,
    ParseError,
)
from .fpt import solve_fpt_maxmin
from .graph import WeightedGraph
from .minmax import minmax_bcpk
from .oracle import exact_maxmin, exact_minmax
from .partition import w_plus
from .scaling import eps_minmax_bcpk

__version__ = "0.1.0"

__all__ = [
    "BcpError",
    "BudgetExceeded",
    "ContractViolation",
    "InputError",
    "InternalError",
    "ParseError",
    "WeightedGraph",
    "eps_minmax_bcpk",
    "exact_maxmin",
    "exact_minmax",
    "minmax_bcpk",
    "solve_fpt_maxmin",
    "w_plus",
]
