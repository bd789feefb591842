"""Section-5 heuristics and exact comparators.

==========  =======================================================
name        algorithm
==========  =======================================================
``greedy``  G — resource-by-resource greedy (Section 5.1)
``lpr``     LPR — rational LP, betas rounded down (Section 5.2.1)
``lprg``    LPRG — LPR + greedy on the residual platform (5.2.2)
``lprr``    LPRR — randomized rounding, ~K^2 LP solves (5.2.3)
``lprg-it`` iterated LPRG — residual re-solves (extension, E15)
``lp``      rational relaxation: *upper bound*, not a schedule
``milp``    exact mixed-integer optimum (HiGHS)
==========  =======================================================
"""

from repro.heuristics.base import (
    Heuristic,
    HeuristicResult,
    get_heuristic,
    register_heuristic,
    registry,
)
from repro.heuristics.greedy import GreedyHeuristic, greedy_allocate
from repro.heuristics.lpr import LPRHeuristic, round_down
from repro.heuristics.lprg import LPRGHeuristic
from repro.heuristics.lprr import LPRRHeuristic
from repro.heuristics.lprg_iterated import IteratedLPRGHeuristic, residual_platform
from repro.heuristics.bounds import LPBound, MILPExact

__all__ = [
    "Heuristic",
    "HeuristicResult",
    "get_heuristic",
    "register_heuristic",
    "registry",
    "GreedyHeuristic",
    "greedy_allocate",
    "LPRHeuristic",
    "round_down",
    "LPRGHeuristic",
    "LPRRHeuristic",
    "IteratedLPRGHeuristic",
    "residual_platform",
    "LPBound",
    "MILPExact",
]
