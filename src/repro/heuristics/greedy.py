"""The greedy heuristic G (Section 5.1).

The heuristic repeatedly (i) selects the application with the smallest
payoff received so far, (ii) picks the most profitable cluster for it
(local compute, or one new connection to a remote cluster), and (iii)
allocates an amount of work that does not starve the other applications,
updating residual capacities after every step.

The selection key follows the paper's *intuition* text (smallest
``alpha_k * pi_k`` first, ties to the largest payoff) rather than its
garbled lexicographic formula — see interpretation note 1 in DESIGN.md.
Applications with ``pi_k = 0`` never participate (note 2). The step-5
local cap degenerates to the full residual speed when it would be zero
(note 3), and a granularity floor bounds the number of local drip
allocations so adversarial capacity ratios cannot stall termination.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.problem import SteadyStateProblem
from repro.heuristics.base import Heuristic, HeuristicResult, register_heuristic
from repro.platform.topology import CapacityLedger

#: allocations below this are treated as "no more work can be executed"
_BENEFIT_TOL = 1e-9
#: local drip allocations are floored at this fraction of residual speed,
#: bounding the iteration count without materially changing results
_LOCAL_GRANULARITY = 1e-3


def greedy_allocate(
    problem: SteadyStateProblem,
    ledger: "CapacityLedger | None" = None,
    base: "Allocation | None" = None,
    selection: str = "intuition",
) -> Allocation:
    """Run G, optionally warm-started (used by LPRG).

    Parameters
    ----------
    problem:
        The steady-state problem (objective is irrelevant: G builds one
        allocation scored under either objective afterwards).
    ledger:
        Residual capacities to start from; ``None`` means the full
        platform. LPRG passes the ledger left over after charging the
        rounded LP solution.
    base:
        Existing allocation to extend in place of the zero allocation;
        its throughputs seed the fairness-selection key.
    selection:
        Step-3 selection rule. ``"intuition"`` (default) follows the
        paper's prose: pick the application with the *smallest*
        ``alpha_k * pi_k``, ties to the largest payoff. ``"literal"``
        implements the formula exactly as printed — sort non-decreasing
        by ``(1/(alpha_k pi_k), pi_k)`` and take the first — which after
        the very first allocation keeps re-selecting the *best served*
        application (winner-takes-all). The E14 ablation benchmark
        quantifies how much worse the literal reading is, supporting
        interpretation note 1 in DESIGN.md.

    Returns
    -------
    Allocation
        ``base`` (copied) plus everything G could add.
    """
    if selection not in ("intuition", "literal"):
        raise ValueError(
            f"unknown selection rule {selection!r}; use 'intuition' or 'literal'"
        )
    platform = problem.platform
    K = platform.n_clusters
    if ledger is None:
        ledger = CapacityLedger(platform)
    alloc = base.copy() if base is not None else Allocation.zeros(K)
    payoffs = problem.payoffs

    # Step 1: only participating applications enter the candidate list.
    pool = [k for k in range(K) if payoffs[k] > 0]

    while pool:
        # Step 3 (select application).
        received = {k: alloc.throughput(k) * payoffs[k] for k in pool}
        if selection == "intuition":
            # Smallest received payoff alpha_k * pi_k; ties -> largest
            # pi_k, then smallest index.
            k = min(pool, key=lambda a: (received[a], -payoffs[a], a))
        else:
            # Paper's formula verbatim: non-decreasing (1/(a*pi), pi).
            k = min(
                pool,
                key=lambda a: (
                    (1.0 / received[a]) if received[a] > 0 else float("inf"),
                    payoffs[a],
                    a,
                ),
            )

        # Step 4 (select cluster): benefit of one connection to each
        # remote cluster vs computing locally.
        best_l, best_benefit = k, float(ledger.speed[k])
        for m in range(K):
            if m == k:
                continue
            benefit = ledger.remote_benefit(k, m)
            if benefit > best_benefit + _BENEFIT_TOL:
                best_l, best_benefit = m, benefit

        if best_benefit <= _BENEFIT_TOL:
            pool.remove(k)  # no more work can be executed for A_k
            continue

        # Step 5 (amount) + step 6 (update residual capacities).
        if best_l == k:
            cap = ledger.local_cap(k)
            # Granularity floor relative to the *nominal* speed: bounds the
            # number of drip allocations per application at ~1/granularity.
            floor = platform.clusters[k].speed * _LOCAL_GRANULARITY
            amount = min(ledger.speed[k], max(cap, floor))
            if amount <= _BENEFIT_TOL:
                pool.remove(k)
                continue
            ledger.commit_local(k, amount)
            alloc.alpha[k, k] += amount
        else:
            amount = best_benefit
            ledger.commit_remote(k, best_l, amount)
            alloc.alpha[k, best_l] += amount
            alloc.beta[k, best_l] += 1

    return alloc


@register_heuristic
class GreedyHeuristic(Heuristic):
    """Registry wrapper around :func:`greedy_allocate`."""

    name = "greedy"
    aliases = ("g",)
    description = "greedy G: resource-by-resource allocation (Section 5.1)"
    option_names = ("selection",)
    uses_lp = False
    deterministic = True

    def _solve(
        self,
        problem: SteadyStateProblem,
        rng: np.random.Generator,
        selection: str = "intuition",
    ) -> HeuristicResult:
        alloc = greedy_allocate(problem, selection=selection)
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=problem.objective_value(alloc),
            allocation=alloc,
            runtime=0.0,
        )
