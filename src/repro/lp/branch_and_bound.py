"""LP-based branch-and-bound for the mixed program (7).

Our own exact solver for the integer ``beta`` block, built on the
rational relaxation: branch on the most fractional beta, tighten its box
bounds (floor on one child, ceil on the other), prune by bound against
the incumbent. It exists for two reasons: (i) it closes the loop on the
paper's NP-hardness discussion with a transparent reference
implementation, and (ii) it cross-checks :mod:`repro.lp.milp_backend`
(HiGHS) in the test-suite. Use HiGHS for anything beyond small ``K``.

With ``warm_start=True`` (the default) every node re-solves through one
:class:`~repro.lp.session.LPSession`: the child LP differs from its
parent only in one beta's box bounds, so each child solve is seeded with
its *parent's* optimal basis (carried per node through the best-first
heap) and usually needs a handful of dual pivots instead of a full cold
solve. ``warm_start=False`` keeps the original rebuild+HiGHS path as
the reference.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.lp.builder import LPInstance
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.session import LPSession
from repro.lp.solution import INTEGRALITY_TOL, LPSolution
from repro.util.errors import InfeasibleError, SolverError

#: bound pruning slack (relative)
_PRUNE_TOL = 1e-9


@dataclass
class BranchAndBoundResult:
    """Outcome of :func:`solve_branch_and_bound`.

    Attributes
    ----------
    solution:
        Best integral solution found (None if none exists).
    bound:
        Best remaining upper bound when stopping (equals the incumbent
        value when ``optimal``).
    optimal:
        True when the search space was exhausted within the node budget.
    nodes:
        Number of LP relaxations solved.
    """

    solution: "LPSolution | None"
    bound: float
    optimal: bool
    nodes: int


def _fractional_betas(instance: LPInstance, x: np.ndarray) -> "list[tuple[int, float]]":
    """(flat index, fractional part distance) of non-integral betas."""
    idx = instance.index
    out = []
    for i in range(idx.n_alpha, idx.n_alpha + idx.n_beta):
        frac = abs(x[i] - round(x[i]))
        if frac > INTEGRALITY_TOL:
            out.append((i, frac))
    return out


def solve_branch_and_bound(
    instance: LPInstance,
    max_nodes: int = 10_000,
    warm_start: bool = True,
) -> BranchAndBoundResult:
    """Best-first branch-and-bound over the integer betas.

    Parameters
    ----------
    instance:
        The LP instance from :func:`repro.lp.builder.build_lp`.
    max_nodes:
        Node budget; on exhaustion the incumbent is returned with
        ``optimal=False`` and the tightest remaining bound.
    warm_start:
        Solve child nodes through a warm-started
        :class:`~repro.lp.session.LPSession`, seeding each from its
        parent's optimal basis — a child differs from its parent in one
        beta's box bounds, so the revised engine's dual simplex usually
        repairs the carried basis in a handful of pivots.
        ``False`` uses cold HiGHS per node.
    """
    counter = itertools.count()  # tie-breaker: heapq needs total order
    incumbent: "LPSolution | None" = None
    incumbent_value = -math.inf
    nodes = 0

    if warm_start:
        # The session owns (and mutates) a private bounds copy.
        session = LPSession(
            instance.with_bounds(instance.lb.copy(), instance.ub.copy())
        )

        def node_solve(lb, ub, parent_basis):
            sol = session.solve(lb=lb, ub=ub, warm_basis=parent_basis)
            return sol, session.last_basis

    else:
        session = None

        def node_solve(lb, ub, parent_basis):
            return solve_lp_scipy(instance.with_bounds(lb, ub)), None

    try:
        root, root_basis = node_solve(instance.lb, instance.ub, None)
    except InfeasibleError:
        return BranchAndBoundResult(None, -math.inf, True, 1)
    nodes += 1

    # Max-heap on the relaxation bound (negate for heapq). Each entry
    # carries the node's own optimal basis to seed its children.
    heap: list = [
        (-root.value, next(counter), instance.lb, instance.ub, root, root_basis)
    ]

    while heap and nodes < max_nodes:
        neg_bound, _, lb, ub, relax, basis = heapq.heappop(heap)
        bound = -neg_bound
        if bound <= incumbent_value * (1 + _PRUNE_TOL) + _PRUNE_TOL:
            continue  # cannot improve on the incumbent

        fractional = _fractional_betas(instance, relax.x)
        if not fractional:
            # Integral leaf: snap betas and adopt if better.
            if relax.value > incumbent_value:
                x = relax.x.copy()
                n_a, n_b = instance.index.n_alpha, instance.index.n_beta
                x[n_a : n_a + n_b] = np.round(x[n_a : n_a + n_b])
                incumbent = LPSolution(x=x, value=relax.value, index=instance.index)
                incumbent_value = relax.value
            continue

        # Branch on the most fractional beta.
        var, _ = max(fractional, key=lambda item: item[1])
        value = relax.x[var]
        floor_v, ceil_v = math.floor(value), math.ceil(value)

        for lo_v, hi_v in (((lb[var]), float(floor_v)), (float(ceil_v), ub[var])):
            if lo_v > hi_v + INTEGRALITY_TOL:
                continue
            child_lb, child_ub = lb.copy(), ub.copy()
            child_lb[var] = max(lb[var], lo_v)
            child_ub[var] = min(ub[var], hi_v)
            try:
                sol, sol_basis = node_solve(child_lb, child_ub, basis)
            except InfeasibleError:
                nodes += 1
                continue
            except SolverError:
                nodes += 1
                continue
            nodes += 1
            if sol.value > incumbent_value + _PRUNE_TOL:
                heapq.heappush(
                    heap,
                    (-sol.value, next(counter), child_lb, child_ub, sol, sol_basis),
                )

    remaining_bound = max((-h[0] for h in heap), default=incumbent_value)
    optimal = not heap and nodes < max_nodes
    return BranchAndBoundResult(
        solution=incumbent,
        bound=float(max(remaining_bound, incumbent_value)),
        optimal=optimal or (remaining_bound <= incumbent_value + 1e-7),
        nodes=nodes,
    )
