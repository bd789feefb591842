"""Iterated LPRG — an extension heuristic beyond the paper.

LPRG applies round-down once and hands the residual capacity to the
greedy. The iterated variant closes the loop instead: after charging the
rounded allocation, it *re-solves the LP on the residual platform*
(with the already-secured throughput folded into the MAXMIN rows) and
rounds again, repeating until rounding adds nothing; only then does the
greedy mop up. Each iteration costs one LP solve, so ``max_iters``
iterations sit between LPRG (1 solve) and LPRR (~K^2 solves) on the
cost/quality spectrum of Figure 7 — the natural "what's between LPRG and
LPRR?" question the paper leaves open.

With the default ``lp_backend="session"`` the residual re-solves run
through an :class:`~repro.lp.session.LPSession`: instead of
snapshotting the ledger into a fresh ``Platform`` and re-assembling the
whole LP each round (``residual_platform`` + ``build_lp``), the session
keeps one instance and each round rewrites *only* the ``b_ub`` entries
the charged ledger touched — compute/local/connection rows, the MAXMIN
base-throughput rows — plus the per-beta connection-cap upper bounds.
Each round re-solves **cold**: a residual rewrite moves the optimum
wholesale, and measurement shows the previous optimal basis is then a
*worse* starting point than a fresh start (the repair path wanders
through the degenerate residual face), so — unlike LPRR's
one-pin-per-solve chain — basis carry is deliberately not used here,
and the method has no ``warm_start`` option.
``lp_backend="scipy"`` restores the original rebuild-from-scratch
HiGHS path, which doubles as the equivalence reference in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.problem import SteadyStateProblem
from repro.heuristics.base import Heuristic, HeuristicResult, register_heuristic
from repro.heuristics.greedy import greedy_allocate
from repro.heuristics.lpr import round_down
from repro.heuristics.lprg import charge_ledger
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.session import LPSession
from repro.platform.cluster import Cluster
from repro.platform.links import BackboneLink
from repro.platform.routing import Route
from repro.platform.topology import CapacityLedger, Platform

#: an iteration that adds less than this much load is considered dry
_PROGRESS_TOL = 1e-7


def residual_platform(ledger: CapacityLedger) -> Platform:
    """Snapshot the ledger as a platform with residual capacities.

    Clusters keep their names and routers; speeds/local capacities come
    from the ledger; backbone links keep their bandwidth but their
    ``max_connect`` becomes the residual connection count. Routes are
    re-pinned to the original paths with re-derived connection caps, so
    explicitly-routed platforms (e.g. the NP-hardness family) survive.
    """
    base = ledger.platform
    clusters = [
        Cluster(c.name, float(ledger.speed[k]), float(ledger.local[k]), c.router)
        for k, c in enumerate(base.clusters)
    ]
    links = [
        BackboneLink(
            name=li.name,
            ends=li.ends,
            bw=li.bw,
            max_connect=int(ledger.connections[name]),
        )
        for name, li in base.links.items()
    ]
    caps = {li.name: li.max_connect for li in links}
    routes = {}
    for pair in base.routed_pairs():
        route = base.route(*pair)
        routes[pair] = Route(
            routers=route.routers,
            links=route.links,
            bandwidth=route.bandwidth,
            connection_cap=(
                min(caps[name] for name in route.links) if route.links else 0
            ),
        )
    return Platform(clusters, base.routers, links, routes=routes)


class _ResidualUpdater:
    """Write a ledger + secured-base state into an LP instance in place.

    Precomputes, once, which ``b_ub`` rows and beta upper bounds the
    ledger can touch; each round is then a handful of vectorised writes
    — the incremental replacement for ``residual_platform`` +
    ``build_lp``.
    """

    def __init__(self, problem: SteadyStateProblem, instance):
        platform = problem.platform
        index = instance.index
        K = platform.n_clusters
        self.instance = instance
        self.rows_compute = np.array(
            [instance.row_id(f"compute[{k}]") for k in range(K)], dtype=int
        )
        self.rows_local = np.array(
            [instance.row_id(f"local[{k}]") for k in range(K)], dtype=int
        )
        self.rows_connect = [
            (name, instance.row_id(f"connect[{name}]"))
            for name in sorted(platform.links)
            if instance.has_row(f"connect[{name}]")
        ]
        payoffs = problem.payoffs
        self.rows_maxmin = (
            [
                (k, instance.row_id(f"maxmin[{k}]"), float(payoffs[k]))
                for k in range(K)
                if instance.has_row(f"maxmin[{k}]")
            ]
            if index.with_t
            else []
        )
        self.beta_caps = [
            (index.beta(k, l), tuple(platform.route(k, l).links))
            for (k, l) in index.beta_pairs
        ]

    def apply(self, ledger: CapacityLedger, base_throughputs: np.ndarray) -> None:
        inst = self.instance
        b = inst.b_ub
        b[self.rows_compute] = ledger.speed
        b[self.rows_local] = ledger.local
        for name, row in self.rows_connect:
            b[row] = float(ledger.connections[name])
        for k, row, payoff in self.rows_maxmin:
            b[row] = payoff * float(base_throughputs[k])
        for col, links in self.beta_caps:
            inst.ub[col] = float(min(ledger.connections[name] for name in links))


@register_heuristic
class IteratedLPRGHeuristic(Heuristic):
    """LP -> round down -> charge -> re-solve on residual -> ... -> greedy."""

    name = "lprg-it"
    aliases = ("lprgi", "iterated-lprg")
    description = "iterated LPRG: residual LP re-solves between roundings (extension)"
    option_names = ("lp_backend", "max_iters")
    uses_lp = True
    deterministic = True

    def _solve(
        self,
        problem: SteadyStateProblem,
        rng: np.random.Generator,
        max_iters: int = 4,
        lp_backend: str = "session",
    ) -> HeuristicResult:
        if max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {max_iters}")
        platform = problem.platform
        K = platform.n_clusters
        ledger = CapacityLedger(platform)
        total = Allocation.zeros(K)
        n_solves = 0

        meta = {"lp_backend": lp_backend}

        if lp_backend == "session":
            instance = build_lp(problem)
            session = LPSession(instance)
            updater = _ResidualUpdater(problem, instance)
            for _ in range(max_iters):
                updater.apply(ledger, total.throughputs)
                # Cold on purpose: after a residual rewrite the carried
                # basis starts further from the new optimum than the
                # all-slack vertex does (see module docstring).
                relaxed = session.solve(warm_basis=None)
                n_solves += 1
                increment = round_down(problem, relaxed)
                if increment.throughputs.sum() <= _PROGRESS_TOL:
                    break
                charge_ledger(ledger, increment)
                total = total.merged_with(increment)
            meta["lp_stats"] = session.stats.as_dict()
        else:
            for _ in range(max_iters):
                current = residual_platform(ledger)
                sub_problem = SteadyStateProblem(
                    current, problem.applications, problem.objective
                )
                relaxed = solve_lp_scipy(
                    build_lp(sub_problem, base_throughputs=total.throughputs)
                )
                n_solves += 1
                increment = round_down(sub_problem, relaxed)
                if increment.throughputs.sum() <= _PROGRESS_TOL:
                    break
                charge_ledger(ledger, increment)
                total = total.merged_with(increment)

        alloc = greedy_allocate(problem, ledger=ledger, base=total)
        return HeuristicResult(
            method=self.name,
            objective=problem.objective.name,
            value=problem.objective_value(alloc),
            allocation=alloc,
            runtime=0.0,
            n_lp_solves=n_solves,
            meta=meta,
        )
