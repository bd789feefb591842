"""LPRR: randomized rounding with LP re-solves (Section 5.2.3).

Following Coudert & Rivano's always-feasible scheme, the heuristic
repeatedly (1) solves the rational LP subject to all betas fixed so far,
(2) picks an unassigned route uniformly at random, (3) rounds its
current rational beta up with probability equal to its fractional part
(down otherwise), (4) clamps the value to the residual integer
connection capacity of every backbone link on the route so the next LP
stays feasible, and (5) fixes the variable. One LP per route pair makes
~K(K-1) solves — the K^2 complexity the paper reports (Figure 7).

Two variants used by the ablation benchmarks:

* ``equal_probability=True`` rounds up/down with probability 1/2
  regardless of the fractional part. The paper notes (Section 6.2) this
  performs much worse; benchmark E7 reproduces that observation.
* ``eager_integer_fixing=True`` fixes *every* currently-integral beta
  after each solve instead of one route per solve; an engineering
  optimisation that slashes LP count, measured in the same benchmark.

With the default ``lp_backend="session"`` the K^2 re-solve loop runs
through a warm-started :class:`~repro.lp.session.LPSession`: each
intermediate LP pins one more beta in place and is seeded with the
previous optimal basis (and its LU factorization). The chain's *first*
LP is the untouched relaxation, which the ``lp`` bound, LPR and LPRG
solve with HiGHS as well; the warm chain asks
:func:`~repro.lp.scipy_backend.solve_lp_scipy` for that optimum (a memo
hit when one of them solved it under the same
:class:`~repro.lp.builder.LPBuildCache`, as in every sweep task; one
HiGHS solve otherwise) and starts from its :meth:`~repro.lp.session.LPSession.support_token`
instead of the all-slack basis. A HiGHS failure, or a point that is not
a vertex, leaves that first solve cold. ``warm_start=False`` makes no
HiGHS call and starts every step cold
(``LPSession.solve(warm_basis=None)``), and ``n_lp_solves`` counts the
chain's LP solves only.

The *final* solve — the one whose solution becomes the returned
allocation — always runs through the session's cold path. Rounding
reads only betas, and the session's ``"betas"`` canonicalization pins
them whatever basis a solve starts from (the alphas of a warm and a cold
step may differ), so ``warm_start=True`` and ``warm_start=False`` take
the same rounding decisions and produce bitwise-identical allocations
(checked by ``benchmarks/bench_warmstart.py``). ``lp_backend="scipy"``
restores the pre-session behaviour (fresh ``with_bounds`` copy + HiGHS
per solve) as the escape hatch.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.allocation import Allocation
from repro.core.problem import SteadyStateProblem
from repro.heuristics.base import Heuristic, HeuristicResult, register_heuristic
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.session import Basis, LPSession
from repro.lp.solution import INTEGRALITY_TOL
from repro.util.errors import SolverError


def _route_residual(platform, pair, residual: dict) -> int:
    """Spare integer connection capacity along ``pair``'s route."""
    route = platform.route(*pair)
    return min(residual[name] for name in route.links)


def _consume(platform, pair, value: int, residual: dict) -> None:
    for name in platform.route(*pair).links:
        residual[name] -= value


def _relaxation_seed(session: LPSession) -> "Basis | None":
    """Warm-start token for the chain's first solve: the support token
    of the HiGHS optimum of the session's still untouched relaxation.

    In a sweep task the ``lp`` bound has solved this very instance under
    the same build cache, so the HiGHS call is a memo hit. ``None`` (a
    cold first solve, as without a seed) when HiGHS fails or its point
    is not a vertex.
    """
    try:
        optimum = solve_lp_scipy(session.instance)
    except SolverError:
        return None
    return session.support_token(optimum.x)


def _rounded_value(
    beta_tilde: float,
    rng: np.random.Generator,
    equal_probability: bool,
) -> int:
    """Randomized rounding of one rational beta value."""
    nearest = round(beta_tilde)
    if abs(beta_tilde - nearest) <= INTEGRALITY_TOL:
        return int(nearest)
    base = math.floor(beta_tilde)
    frac = beta_tilde - base
    p_up = 0.5 if equal_probability else frac
    return base + (1 if rng.random() < p_up else 0)


class _LPRRBase(Heuristic):
    """Shared implementation; subclasses pin the rounding probability."""

    equal_probability = False
    option_names = ("eager_integer_fixing", "lp_backend", "warm_start")
    uses_lp = True
    deterministic = False

    def _solve(
        self,
        problem: SteadyStateProblem,
        rng: np.random.Generator,
        eager_integer_fixing: bool = False,
        warm_start: bool = True,
        lp_backend: str = "session",
    ) -> HeuristicResult:
        platform = problem.platform
        instance = build_lp(problem)
        index = instance.index

        if lp_backend == "session":
            session = LPSession(instance)
            seed = (
                _relaxation_seed(session)
                if warm_start and index.beta_pairs
                else None
            )
            lb, ub = instance.lb, instance.ub  # mutated in place

            def lp_solve():
                # seed is None on the cold chain: every step starts cold
                if not warm_start or session.stats.n_solves == 0:
                    return session.solve(warm_basis=seed)
                return session.solve()

            def lp_solve_final():
                # Cold full-program solve: identical arithmetic in the
                # warm and cold paths, so the returned allocation is
                # bitwise-comparable across them.
                return session.solve(warm_basis=None)

        else:
            session = None
            lb, ub = instance.lb.copy(), instance.ub.copy()

            def lp_solve():
                return solve_lp_scipy(instance.with_bounds(lb, ub))

            lp_solve_final = lp_solve

        residual = {name: link.max_connect for name, link in platform.links.items()}
        unassigned = list(index.beta_pairs)
        n_solves = 0

        while unassigned:
            solution = lp_solve()
            n_solves += 1

            pick = int(rng.integers(len(unassigned)))
            pair = unassigned.pop(pick)
            self._fix_pair(pair, solution, rng, platform, index, lb, ub, residual)

            if eager_integer_fixing:
                still = []
                for other in unassigned:
                    var = index.beta(*other)
                    value = float(solution.x[var])
                    if abs(value - round(value)) <= INTEGRALITY_TOL:
                        self._fix_pair(
                            other, solution, rng, platform, index, lb, ub, residual
                        )
                    else:
                        still.append(other)
                unassigned = still

        final = lp_solve_final()
        n_solves += 1
        alloc = Allocation(final.alpha, np.round(final.beta).astype(np.int64))
        meta = {"lp_backend": lp_backend}
        if session is not None:
            meta["lp_stats"] = session.stats.as_dict()
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=problem.objective_value(alloc),
            allocation=alloc,
            runtime=0.0,
            n_lp_solves=n_solves,
            meta=meta,
        )

    def _fix_pair(
        self, pair, solution, rng, platform, index, lb, ub, residual
    ) -> None:
        var = index.beta(*pair)
        value = _rounded_value(float(solution.x[var]), rng, self.equal_probability)
        value = max(0, min(value, _route_residual(platform, pair, residual)))
        lb[var] = ub[var] = float(value)
        _consume(platform, pair, value, residual)


@register_heuristic
class LPRRHeuristic(_LPRRBase):
    """Paper-faithful LPRR (round up with probability = fractional part)."""

    name = "lprr"
    description = "LPRR: randomized rounding with ~K^2 LP re-solves (Section 5.2.3)"
    equal_probability = False


@register_heuristic
class LPRREqualHeuristic(_LPRRBase):
    """Ablation: round up/down with equal probability (Section 6.2 remark)."""

    name = "lprr-eq"
    description = "LPRR ablation: round up/down with equal probability (Section 6.2)"
    equal_probability = True
