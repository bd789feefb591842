"""LPR: solve the rational LP, round the betas down (Section 5.2.1).

Given the rational solution ``(alpha~, beta~)``, build::

    beta^[k, l]  = floor(beta~[k, l])
    alpha^[k, l] = min(alpha~[k, l], beta^[k, l] * min bw on route)

which the paper shows is again a solution of the LP with integral betas.
Rounding *down* can waste a lot of residual network capacity — the
paper's Section 6.1 observes LPR sometimes rounds every beta to 0 — and
that is exactly what LPRG repairs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.allocation import Allocation
from repro.core.problem import SteadyStateProblem
from repro.heuristics.base import Heuristic, HeuristicResult, register_heuristic
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.solution import INTEGRALITY_TOL, LPSolution


def _floor_snapped(value: float) -> int:
    """Floor, but snap values within LP tolerance of an integer first.

    HiGHS may return 2.9999999997 for an exact 3; plain ``floor`` would
    lose a whole connection to solver noise.
    """
    nearest = round(value)
    if abs(value - nearest) <= INTEGRALITY_TOL:
        return int(nearest)
    return int(math.floor(value))


def round_down(problem: SteadyStateProblem, relaxed: LPSolution) -> Allocation:
    """Apply the LPR rounding rule to a rational LP solution."""
    platform = problem.platform
    K = platform.n_clusters
    alpha_t = relaxed.alpha
    beta_t = relaxed.beta

    alpha = np.zeros((K, K), dtype=float)
    beta = np.zeros((K, K), dtype=np.int64)
    for k in range(K):
        alpha[k, k] = alpha_t[k, k]
    for (k, l) in platform.routed_pairs():
        route = platform.route(k, l)
        if not route.links:
            # Same-router pair: no backbone constraint, keep alpha as-is.
            alpha[k, l] = alpha_t[k, l]
            continue
        b = _floor_snapped(float(beta_t[k, l]))
        beta[k, l] = b
        alpha[k, l] = min(float(alpha_t[k, l]), b * route.bandwidth)
    return Allocation(alpha, beta)


@register_heuristic
class LPRHeuristic(Heuristic):
    """Registry wrapper: rational LP + round-down."""

    name = "lpr"
    description = "LPR: rational LP, betas rounded down (Section 5.2.1)"
    uses_lp = True
    deterministic = True

    def _solve(
        self, problem: SteadyStateProblem, rng: np.random.Generator
    ) -> HeuristicResult:
        instance = build_lp(problem)
        relaxed = solve_lp_scipy(instance)
        alloc = round_down(problem, relaxed)
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=problem.objective_value(alloc),
            allocation=alloc,
            runtime=0.0,
            n_lp_solves=1,
            meta={"relaxation_value": relaxed.value},
        )
