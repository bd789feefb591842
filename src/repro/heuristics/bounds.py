"""Exact comparators: the LP upper bound and the true mixed-integer optimum.

* :class:`LPBound` — the paper's "LP" method: the rational relaxation of
  program (7). Its value is an *upper bound* on the optimal throughput
  and generally not realizable (betas are fractional), so the result has
  ``allocation=None``. All Figure-5/6 ratios are computed against it.
* :class:`MILPExact` — the true optimum via HiGHS MILP.
* :class:`BranchAndBoundExact` — the true optimum via our own B&B
  (cross-check of the above; small K only).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SteadyStateProblem
from repro.heuristics.base import Heuristic, HeuristicResult, register_heuristic
from repro.lp.branch_and_bound import solve_branch_and_bound
from repro.lp.builder import build_lp
from repro.lp.milp_backend import solve_milp_scipy
from repro.lp.scipy_backend import solve_lp_scipy
from repro.util.errors import SolverError


@register_heuristic
class LPBound(Heuristic):
    """Rational relaxation — an upper bound, not a schedule."""

    name = "lp"
    aliases = ("lp-bound", "relaxation")
    description = "rational relaxation of program (7): an upper bound, not a schedule"
    uses_lp = True
    deterministic = True

    def _solve(
        self, problem: SteadyStateProblem, rng: np.random.Generator
    ) -> HeuristicResult:
        solution = solve_lp_scipy(build_lp(problem))
        allocation = solution.to_allocation() if solution.is_integral else None
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=solution.value,
            allocation=allocation,
            runtime=0.0,
            n_lp_solves=1,
            meta={"solution": solution},
        )


@register_heuristic
class MILPExact(Heuristic):
    """Exact optimum of the mixed program via HiGHS MILP."""

    name = "milp"
    aliases = ("exact", "mlp")
    description = "exact mixed-integer optimum via HiGHS MILP"
    option_names = ("time_limit",)
    uses_lp = True
    deterministic = True

    def _solve(
        self,
        problem: SteadyStateProblem,
        rng: np.random.Generator,
        time_limit: "float | None" = None,
    ) -> HeuristicResult:
        solution = solve_milp_scipy(build_lp(problem), time_limit=time_limit)
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=solution.value,
            allocation=solution.to_allocation(),
            runtime=0.0,
            n_lp_solves=1,
            meta={"solution": solution},
        )


@register_heuristic
class BranchAndBoundExact(Heuristic):
    """Exact optimum via our own LP-based branch-and-bound."""

    name = "bnb"
    aliases = ("branch-and-bound",)
    description = "exact optimum via LP-based branch-and-bound (small K)"
    option_names = ("max_nodes", "warm_start")
    uses_lp = True
    deterministic = True

    def _solve(
        self,
        problem: SteadyStateProblem,
        rng: np.random.Generator,
        max_nodes: int = 10_000,
        warm_start: bool = True,
    ) -> HeuristicResult:
        result = solve_branch_and_bound(
            build_lp(problem), max_nodes=max_nodes, warm_start=warm_start
        )
        if result.solution is None:
            raise SolverError("branch-and-bound found no integral solution")
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=result.solution.value,
            allocation=result.solution.to_allocation(),
            runtime=0.0,
            n_lp_solves=result.nodes,
            meta={"optimal": result.optimal, "bound": result.bound},
        )
