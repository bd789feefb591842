"""LPRG: LPR base + greedy refinement on the residual platform
(Section 5.2.2).

"LPR gives the basic framework of the solution, while the Greedy
heuristic refines it": after rounding the rational LP down, whatever
compute speed, local-link capacity and backbone connections remain
unclaimed are handed to G, warm-started with the rounded allocation so
its fairness key sees the payoff each application has already received.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SteadyStateProblem
from repro.heuristics.base import Heuristic, HeuristicResult, register_heuristic
from repro.heuristics.greedy import greedy_allocate
from repro.heuristics.lpr import round_down
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy
from repro.platform.topology import CapacityLedger

from repro.core.allocation import Allocation


def charge_ledger(ledger: CapacityLedger, alloc: Allocation) -> None:
    """Subtract an existing allocation's resource usage from a ledger.

    Float noise from the LP is clamped: the ledger tolerates overdrafts
    up to its ``TOL`` and floors residuals at zero.
    """
    K = alloc.n_clusters
    for k in range(K):
        local = float(alloc.alpha[k, k])
        if local:
            ledger.commit_local(k, min(local, ledger.speed[k]))
    for k, l, amount, n_conn in alloc.remote_transfers():
        ledger.charge_transfer(
            k,
            l,
            min(amount, ledger.speed[l], ledger.local[k], ledger.local[l]),
            n_conn,
        )


@register_heuristic
class LPRGHeuristic(Heuristic):
    """Registry wrapper: LP -> round down -> greedy top-up."""

    name = "lprg"
    description = "LPRG: LPR + greedy top-up on residual capacity (Section 5.2.2)"
    uses_lp = True
    deterministic = True

    def _solve(
        self, problem: SteadyStateProblem, rng: np.random.Generator
    ) -> HeuristicResult:
        instance = build_lp(problem)
        relaxed = solve_lp_scipy(instance)
        base = round_down(problem, relaxed)

        ledger = CapacityLedger(problem.platform)
        charge_ledger(ledger, base)
        alloc = greedy_allocate(problem, ledger=ledger, base=base)

        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=problem.objective_value(alloc),
            allocation=alloc,
            runtime=0.0,
            n_lp_solves=1,
            meta={
                "relaxation_value": relaxed.value,
                "lpr_value": problem.objective_value(base),
            },
        )
