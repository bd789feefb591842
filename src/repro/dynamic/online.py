"""Online steady-state re-scheduling over a live :class:`LPSession`.

The static pipeline solves program (7) once; this module keeps the
solution *current* while an :class:`~repro.dynamic.events.EventTrace`
perturbs the platform. The core observation (ROADMAP: "online
steady-state scheduling") is that almost every real-world event lands
in one of three LP-mutation classes, in increasing order of cost:

``"rhs"`` — **RHS-only fast path.** CPU drift rewrites the
    ``compute[k]`` row's RHS, local-capacity drift the ``local[k]``
    row's, node failure/recovery zeroes/restores both. One or two
    entries of ``b_ub`` change via :meth:`LPSession.set_rhs`; the
    carried basis stays structurally valid and the revised engine's
    dual simplex repairs it in a handful of pivots.

``"bounds"`` — **bound-only pin/release.** A backbone-link failure
    forbids every transfer routed through the link:
    :meth:`LPSession.fix_variable` pins the affected ``alpha``/``beta``
    variables to zero; recovery releases them back to their snapshotted
    boxes (:meth:`LPSession.release_variable`). No matrix row is
    touched. Overlapping failures are refcounted by recomputing the
    needed pin set from the currently-failed links, so a variable shared
    by two dead routes stays pinned until *both* recover.

``"structural"`` — **rebuild.** Application arrival/departure changes
    the payoff vector, and with it the maxmin linearisation row set (and
    the SUM objective coefficients) — a genuinely different program.
    The scheduler rebuilds through the :class:`~repro.lp.builder.
    LPBuildCache` (payoffs are part of the cache key, so churning
    between two application mixes hits the template cache) and starts
    fresh sessions; drifted RHS values and link pins are re-applied to
    the new instance.

**The oracle-equivalence guarantee.** Both the incremental session and
a from-scratch oracle session are attached to the *same* mutated
:class:`~repro.lp.builder.LPInstance`; after every event the oracle
solves it cold (``solve(warm_basis=None)``). Each side runs one solve,
with its one optimal-face search, and one token read, and two
mechanisms make warm == cold *bitwise*, not merely value-equal. First,
full-column vertex canonicalization (``LPSession(canon="all")``)
maximises a generic secondary objective over the optimal face, so a
degenerate face — e.g. a failed node leaving surplus capacity free
elsewhere — still resolves to one vertex whatever basis the solve
started from. Second, one vertex can be represented by *different
bases*, whose ``B^{-1}b`` extractions differ at roundoff; the **support
token** (:meth:`OnlineScheduler._support_token`) derives one basis from
the reported point alone — strictly-between columns plus the slacks of
non-tight rows, completed by the slacks of the rows an LU factorization
of those columns leaves unpivoted — and :meth:`LPSession.read` reads
the point back from it with one factorization and one FTRAN. The
reported floats then depend only on (instance data, token): identical
on both sides exactly when both solves found the same vertex. A read
that is infeasible, or whose value strays from the solve's by more than
``1e-9`` relative, falls back to a re-solve from the token, and the
scheduler counts it. The oracle only observes: nothing it computes flows
back into the incremental session, so per-event solutions and state
dicts are the same with ``check_oracle`` on or off, and there is no
residual tie mode. ``record.oracle_match`` is an exact ``==`` on
solution vectors — gated across every registered trace family by
``benchmarks/bench_online.py``; a *near-tie* (values agree to ``1e-9``
relative, points differ) is a mismatch, counted in the metrics and in
:meth:`DisruptionReport.summary`. The oracle's pivot count is the
from-scratch baseline that prices the warm path's savings.

After each re-solve the new LP point is rounded down to a valid
allocation, scored, and (optionally) replayed through
``schedule``/``simulation`` on the *drifted* platform; the per-event
:class:`DisruptionRecord`\\ s aggregate into a :class:`DisruptionReport`
(time-to-reoptimize, iterations vs oracle, schedule churn, steady-state
throughput deficit).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.core.allocation import Allocation
from repro.core.problem import SteadyStateProblem
from repro.dynamic.events import EventTrace, EventTraceError, PlatformEvent
from repro.dynamic.options import DynamicOptions
from repro.heuristics.lpr import round_down
from repro.lp.builder import (
    LPBuildCache,
    active_build_cache,
    build_lp,
    use_build_cache,
)
from repro.lp.session import Basis, LPSession
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_tracer
from repro.platform.cluster import Cluster
from repro.platform.topology import Platform
from repro.util.errors import SolverError

#: event -> LP-mutation classes (see module docstring)
CLASSIFICATIONS = ("rhs", "bounds", "structural")

#: churn denominators below this treat the allocation as empty
_CHURN_EPS = 1e-12

#: support classification tolerance for the token extraction —
#: coarse enough that the warm and oracle points (same vertex, roundoff
#: apart) always classify identically, fine enough to separate genuine
#: basic values from bound-resting ones on program-(7) scales
_SUPPORT_TOL = 1e-7

#: LU pivot, relative to its column's scale, below which a forced
#: column is rank-redundant
_RANK_TOL = 1e-8

#: relative value agreement of a token read with its solve, and of a
#: near-tie between the warm and oracle points
_VALUE_TOL = 1e-9


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class DisruptionRecord:
    """Everything measured about one applied event.

    ``oracle_match`` is the bitwise warm-vs-cold comparison (None when
    the oracle is disabled); ``solution_sha`` hashes the LP point so
    reports are comparable without carrying the vectors;
    ``throughput_deficit`` is the relative gap between the rounded
    allocation's objective and the (relaxed) LP bound after the event.
    ``warm_solves`` counts the incremental session's solves (1, or 2
    when its token read fell back to a re-solve); ``read_fallbacks``
    counts the token reads, warm and oracle, that fell back.
    """

    event: PlatformEvent
    classification: str
    warm_iterations: int
    oracle_iterations: "int | None"
    warm_solves: int
    read_fallbacks: int
    reoptimize_seconds: float
    value: float
    oracle_value: "float | None"
    oracle_match: "bool | None"
    solution_sha: str
    alloc_sha: str
    alloc_value: float
    throughput_deficit: float
    churn: float
    beta_changes: int
    simulated_value: "float | None"

    def to_dict(self) -> dict:
        return {
            "event": self.event.to_dict(),
            "classification": self.classification,
            "warm_iterations": self.warm_iterations,
            "oracle_iterations": self.oracle_iterations,
            "warm_solves": self.warm_solves,
            "read_fallbacks": self.read_fallbacks,
            "reoptimize_seconds": self.reoptimize_seconds,
            "value": self.value,
            "oracle_value": self.oracle_value,
            "oracle_match": self.oracle_match,
            "solution_sha": self.solution_sha,
            "alloc_sha": self.alloc_sha,
            "alloc_value": self.alloc_value,
            "throughput_deficit": self.throughput_deficit,
            "churn": self.churn,
            "beta_changes": self.beta_changes,
            "simulated_value": self.simulated_value,
        }

    @property
    def near_tie(self) -> bool:
        """Warm and oracle values agree to ``1e-9`` relative, but the
        points differ (always False without the oracle)."""
        return self.oracle_match is False and abs(
            self.value - self.oracle_value
        ) <= _VALUE_TOL * max(1.0, abs(self.oracle_value))

    def state_entry(self) -> dict:
        """The deterministic slice of :meth:`to_dict`: no wall-clock
        timing and no work counts (warm and cold runs must produce
        identical state dicts — that is the replay invariant)."""
        return {
            "event": self.event.to_dict(),
            "classification": self.classification,
            "value": self.value,
            "solution_sha": self.solution_sha,
            "alloc_sha": self.alloc_sha,
            "alloc_value": self.alloc_value,
            "throughput_deficit": self.throughput_deficit,
            "churn": self.churn,
            "beta_changes": self.beta_changes,
            "simulated_value": self.simulated_value,
        }


@dataclass(frozen=True)
class DisruptionReport:
    """Aggregate of one trace replay (see :meth:`summary`)."""

    trace: EventTrace
    records: "tuple[DisruptionRecord, ...]"
    initial_value: float
    initial_solution_sha: str

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        warm = sum(r.warm_iterations for r in self.records)
        oracle_counts = [
            r.oracle_iterations
            for r in self.records
            if r.oracle_iterations is not None
        ]
        oracle = sum(oracle_counts) if oracle_counts else None
        by_class = {c: 0 for c in CLASSIFICATIONS}
        for record in self.records:
            by_class[record.classification] += 1
        matches = [r.oracle_match for r in self.records if r.oracle_match is not None]
        n = len(self.records)
        return {
            "n_events": n,
            "by_classification": by_class,
            "warm_iterations": warm,
            "oracle_iterations": oracle,
            "iteration_reduction": (
                1.0 - warm / oracle if oracle else None
            ),
            "warm_solves": sum(r.warm_solves for r in self.records),
            "read_fallbacks": sum(r.read_fallbacks for r in self.records),
            "all_oracle_match": all(matches) if matches else None,
            "near_ties": (
                sum(r.near_tie for r in self.records) if matches else None
            ),
            "mean_reoptimize_seconds": (
                sum(r.reoptimize_seconds for r in self.records) / n if n else 0.0
            ),
            "max_reoptimize_seconds": (
                max((r.reoptimize_seconds for r in self.records), default=0.0)
            ),
            "mean_churn": (
                sum(r.churn for r in self.records) / n if n else 0.0
            ),
            "mean_throughput_deficit": (
                sum(r.throughput_deficit for r in self.records) / n if n else 0.0
            ),
            "initial_value": self.initial_value,
            "final_value": (
                self.records[-1].value if self.records else self.initial_value
            ),
        }

    def state_dict(self) -> dict:
        """Deterministic replay fingerprint: identical for warm
        incremental runs, cold (``warm_start=False``) runs, and runs
        reconstructed from a saved trace JSON."""
        return {
            "version": 1,
            "initial_value": self.initial_value,
            "initial_solution_sha": self.initial_solution_sha,
            "records": [r.state_entry() for r in self.records],
        }

    def to_dict(self) -> dict:
        return {
            "trace": self.trace.to_dict(),
            "initial_value": self.initial_value,
            "initial_solution_sha": self.initial_solution_sha,
            "records": [r.to_dict() for r in self.records],
            "summary": self.summary(),
        }


class OnlineScheduler:
    """Keep a steady-state schedule optimal while events land on it.

    Parameters
    ----------
    problem:
        The initial (pre-drift) problem; its platform topology — routes
        and backbone links — is fixed for the whole run, while speeds,
        capacities, availability and payoffs evolve with the trace.
    options:
        :class:`DynamicOptions` (defaults apply when omitted).
    warm_start:
        ``False`` makes every incremental re-solve start cold
        (``solve(warm_basis=None)``) while keeping the same session and
        extraction path, so warm and cold runs must (and do) produce
        identical :meth:`DisruptionReport.state_dict` fingerprints.
    max_iter:
        Forwarded to the underlying :class:`LPSession`.
    """

    def __init__(
        self,
        problem: SteadyStateProblem,
        options: "DynamicOptions | None" = None,
        warm_start: bool = True,
        max_iter: int = 100_000,
    ):
        if options is None:
            options = DynamicOptions()
        if not isinstance(options, DynamicOptions):
            raise SolverError(
                f"options must be a DynamicOptions, got {options!r}"
            )
        self.problem = problem
        self.options = options
        self.warm_start = bool(warm_start)
        self.max_iter = int(max_iter)
        base = problem.platform
        self._base = base
        self._speeds = np.asarray(base.speeds, dtype=float).copy()
        self._g = np.asarray(base.local_capacities, dtype=float).copy()
        self._payoffs = np.asarray(problem.payoffs, dtype=float).copy()
        self._failed_nodes: set[int] = set()
        self._failed_links: set[str] = set()
        self._cache = active_build_cache() or LPBuildCache()
        self._records: list[DisruptionRecord] = []
        # Observability only: per-event re-optimization latency and churn
        # series. Never serialised into report state dicts (see the
        # determinism-invisibility contract in docs/architecture.md).
        self.metrics = MetricsRegistry()
        self._build_sessions()
        solution, fell_back = self._extract(
            self._session, self._solve_incremental()
        )
        self._count_fallbacks(int(fell_back))
        self._solution = solution
        self._prev_alloc = round_down(self._current_problem(), solution)
        self.initial_value = float(solution.value)
        self.initial_solution_sha = _sha(solution.x)

    # ------------------------------------------------------------------
    # current dynamic state
    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Objective value of the most recent re-solve."""
        return float(self._solution.value)

    @property
    def solution(self):
        """LP point of the most recent re-solve."""
        return self._solution

    @property
    def allocation(self) -> Allocation:
        """Rounded allocation of the most recent re-solve."""
        return self._prev_alloc

    @property
    def payoffs(self) -> np.ndarray:
        return self._payoffs.copy()

    @property
    def failed_links(self) -> "tuple[str, ...]":
        return tuple(sorted(self._failed_links))

    @property
    def failed_nodes(self) -> "tuple[int, ...]":
        return tuple(sorted(self._failed_nodes))

    @staticmethod
    def _merged(totals: dict, session: "LPSession | None") -> dict:
        out = dict(totals)
        if session is not None:
            for key, val in session.stats.as_dict().items():
                out[key] = out.get(key, 0) + val
        return out

    @property
    def session_stats(self) -> dict:
        """Lifetime counters of the incremental session(s) — totals
        survive structural rebuilds replacing the live session."""
        return self._merged(self._warm_totals, self._session)

    @property
    def oracle_stats(self) -> "dict | None":
        if self._oracle is None:
            return None
        return self._merged(self._oracle_totals, self._oracle)

    @property
    def platform(self) -> Platform:
        """The platform under the current drift/failure state."""
        return self._current_platform()

    def _effective_speeds(self) -> np.ndarray:
        s = self._speeds.copy()
        for k in self._failed_nodes:
            s[k] = 0.0
        return s

    def _effective_g(self) -> np.ndarray:
        g = self._g.copy()
        for k in self._failed_nodes:
            g[k] = 0.0
        return g

    def _current_platform(self) -> Platform:
        s = self._effective_speeds()
        g = self._effective_g()
        clusters = [
            Cluster(c.name, float(s[k]), float(g[k]), c.router)
            for k, c in enumerate(self._base.clusters)
        ]
        return Platform(
            clusters,
            self._base.routers,
            list(self._base.links.values()),
            routes={
                pair: self._base.route(*pair)
                for pair in self._base.routed_pairs()
            },
        )

    def _current_problem(self) -> SteadyStateProblem:
        return SteadyStateProblem(
            self._current_platform(), self._payoffs, self.problem.objective
        )

    # ------------------------------------------------------------------
    # session (re)construction
    # ------------------------------------------------------------------
    def _build_sessions(self) -> None:
        template = SteadyStateProblem(
            self._base, self._payoffs, self.problem.objective
        )
        with use_build_cache(self._cache):
            instance = build_lp(template)
            # Both sessions are *warm-capable* and share the mutated
            # instance. The oracle is made cold per call
            # (solve(warm_basis=None)) rather than per session
            # (warm_start=False) because a cold session ignores every
            # basis token — and a read fallback re-solves from an
            # explicit token on either side.
            self._session = LPSession(
                instance,
                warm_start=True,
                max_iter=self.max_iter,
                canon="all",
            )
            self._oracle = (
                LPSession(
                    instance,
                    warm_start=True,
                    max_iter=self.max_iter,
                    canon="all",
                )
                if self.options.check_oracle
                else None
            )
            self._A = self._cache.dense_matrix(instance)
        self._instance = instance
        if not hasattr(self, "_warm_totals"):
            self._warm_totals = self._session.stats.as_dict()
            self._oracle_totals = (
                self._oracle.stats.as_dict() if self._oracle else {}
            )
        # A rebuilt instance starts from the *base* platform's rows and
        # boxes; replay the accumulated drift/failure state onto it.
        K = self._base.n_clusters
        s = self._effective_speeds()
        g = self._effective_g()
        self._session.set_rhs(
            [instance.row_id(f"compute[{k}]") for k in range(K)], s
        )
        self._session.set_rhs(
            [instance.row_id(f"local[{k}]") for k in range(K)], g
        )
        self._sync_pins()

    def _accumulate_stats(self) -> None:
        """Fold the live sessions' counters into the lifetime totals
        (sessions are replaced wholesale on structural rebuilds)."""
        for totals, session in (
            (self._warm_totals, self._session),
            (self._oracle_totals, self._oracle),
        ):
            if session is None:
                continue
            for key, val in session.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + val
            session.stats.__init__()

    def _pinned_vars_needed(self) -> "set[int]":
        index = self._instance.index
        needed: set[int] = set()
        for name in self._failed_links:
            for (k, l) in self._base.routes_through(name):
                needed.add(index.alpha(k, l))
                if index.has_beta(k, l):
                    needed.add(index.beta(k, l))
        return needed

    def _sync_pins(self) -> None:
        """Reconcile the session's pinned set with the failed-link set."""
        needed = self._pinned_vars_needed()
        current = set(self._session.pinned_variables)
        for var in sorted(needed - current):
            self._session.fix_variable(var, 0.0)
        for var in sorted(current - needed):
            self._session.release_variable(var)

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def _check_cluster(self, event: PlatformEvent) -> int:
        k = int(event.target)
        if k >= self._base.n_clusters:
            raise EventTraceError(
                f"{event.kind} targets cluster {k} but the platform has "
                f"{self._base.n_clusters} clusters"
            )
        return k

    def _apply(self, event: PlatformEvent) -> str:
        kind = event.kind
        inst = self._instance
        if kind == "cpu-drift":
            k = self._check_cluster(event)
            self._speeds[k] *= float(event.factor)
            if k not in self._failed_nodes:
                self._session.set_rhs(
                    [inst.row_id(f"compute[{k}]")], self._speeds[k]
                )
            return "rhs"
        if kind == "bw-drift":
            k = self._check_cluster(event)
            self._g[k] *= float(event.factor)
            if k not in self._failed_nodes:
                self._session.set_rhs(
                    [inst.row_id(f"local[{k}]")], self._g[k]
                )
            return "rhs"
        if kind == "node-fail":
            k = self._check_cluster(event)
            if k in self._failed_nodes:
                raise EventTraceError(f"node-fail: cluster {k} is already down")
            self._failed_nodes.add(k)
            self._session.set_rhs(
                [inst.row_id(f"compute[{k}]"), inst.row_id(f"local[{k}]")],
                [0.0, 0.0],
            )
            return "rhs"
        if kind == "node-recover":
            k = self._check_cluster(event)
            if k not in self._failed_nodes:
                raise EventTraceError(f"node-recover: cluster {k} is not down")
            self._failed_nodes.discard(k)
            self._session.set_rhs(
                [inst.row_id(f"compute[{k}]"), inst.row_id(f"local[{k}]")],
                [self._speeds[k], self._g[k]],
            )
            return "rhs"
        if kind == "link-fail":
            name = str(event.target)
            if name not in self._base.links:
                raise EventTraceError(f"link-fail: unknown backbone link {name!r}")
            if name in self._failed_links:
                raise EventTraceError(f"link-fail: link {name!r} is already down")
            self._failed_links.add(name)
            self._sync_pins()
            return "bounds"
        if kind == "link-recover":
            name = str(event.target)
            if name not in self._failed_links:
                raise EventTraceError(f"link-recover: link {name!r} is not down")
            self._failed_links.discard(name)
            self._sync_pins()
            return "bounds"
        if kind == "app-arrive":
            k = self._check_cluster(event)
            if self._payoffs[k] > 0.0:
                raise EventTraceError(
                    f"app-arrive: cluster {k} already hosts a live application"
                )
            self._payoffs[k] = float(event.payoff)
            self._accumulate_stats()
            self._build_sessions()
            return "structural"
        if kind == "app-depart":
            k = self._check_cluster(event)
            if self._payoffs[k] <= 0.0:
                raise EventTraceError(
                    f"app-depart: cluster {k} has no live application"
                )
            self._payoffs[k] = 0.0
            self._accumulate_stats()
            self._build_sessions()
            return "structural"
        raise EventTraceError(f"unknown event kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # canonical extraction (support token)
    # ------------------------------------------------------------------
    def _solve_incremental(self):
        """One re-solve of the incremental session: carried-basis warm
        when ``self.warm_start``, per-call cold otherwise (same session,
        same extraction — only the starting basis differs)."""
        if self.warm_start:
            return self._session.solve()
        return self._session.solve(warm_basis=None)

    def _support_token(self, x: np.ndarray) -> "Basis | None":
        """Derive a deterministic basis token from a reported LP point.

        Forced-basic columns are the structural variables strictly
        between their bounds and the slacks of non-tight rows. An LU
        factorization with partial pivoting of the forced structurals'
        tight-row block picks the rows they cover; the slacks of the
        tight rows left over complete the basis (a forced slack covers
        its own row, so this is the factorization of the whole forced
        block with the slacks taken first). The token is a function of
        (A, bounds, support classification) only, and the classification
        tolerance is orders of magnitude above the roundoff separating
        the warm and oracle reports of one vertex — so both sides derive
        the *same* token. Returns ``None`` when the forced columns are
        dependent, so the point is not a vertex (a HiGHS-fallback
        interior report): the caller then keeps the raw solution.
        """
        inst = self._instance
        A = self._A
        m, n = A.shape
        between = np.nonzero(
            (inst.lb + _SUPPORT_TOL < x) & (x < inst.ub - _SUPPORT_TOL)
        )[0]
        tight = np.nonzero(inst.b_ub - A @ x <= _SUPPORT_TOL)[0]
        if between.size > tight.size:
            return None
        pivoted = np.zeros(m, dtype=bool)
        if between.size:
            perm, _, U = scipy.linalg.lu(
                A[np.ix_(tight, between)], p_indices=True
            )
            scale = np.maximum(1.0, np.abs(A[:, between]).max(axis=0))
            if np.any(np.abs(np.diag(U)) <= _RANK_TOL * scale):
                return None  # dependent forced columns: not a vertex
            pivoted[tight[perm < between.size]] = True
        at_upper = np.zeros(n + m, dtype=bool)
        at_upper[:n] = (
            np.isfinite(inst.ub)
            & (inst.ub - inst.lb > _SUPPORT_TOL)
            & (np.abs(x - inst.ub) <= _SUPPORT_TOL)
        )
        return Basis(
            np.concatenate([between, n + np.nonzero(~pivoted)[0]]), at_upper
        )

    def _extract(self, session: LPSession, solution):
        """Read the solve's point back from its own support token (see
        module docstring, "support token"): one factorization, one
        FTRAN, floats independent of the solve's trajectory. Returns
        ``(solution, fell_back)``; a read that is infeasible or strays
        from the solve's value falls back to a re-solve from the token.
        """
        token = self._support_token(solution.x)
        if token is None:
            return solution, False
        read = session.read(token)
        if read is not None and abs(read.value - solution.value) <= (
            _VALUE_TOL * max(1.0, abs(solution.value))
        ):
            return read, False
        return session.solve(warm_basis=token), True

    def _count_fallbacks(self, n: int) -> None:
        self.metrics.counter(
            "repro_online_read_fallbacks_total",
            help="Token reads that fell back to a re-solve from the token.",
        ).inc(n)

    # ------------------------------------------------------------------
    def step(self, event: PlatformEvent) -> DisruptionRecord:
        """Apply one event, re-solve incrementally, measure everything."""
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("event", kind=event.kind, time=event.time) as span:
                record = self._step(event)
                span.set(
                    classification=record.classification,
                    warm_iterations=record.warm_iterations,
                    churn=record.churn,
                )
        else:
            record = self._step(event)
        self.metrics.counter(
            "repro_online_events_total",
            help="Events applied, by classification.",
            labels={"classification": record.classification},
        ).inc()
        self.metrics.histogram(
            "repro_online_reoptimize_seconds",
            help="Per-event incremental re-optimization latency.",
            lo=0.0,
            hi=1.0,
            n_bins=64,
        ).observe(record.reoptimize_seconds)
        self.metrics.histogram(
            "repro_online_churn",
            help="Per-event allocation churn (relative L1 drift).",
            lo=0.0,
            hi=2.0,
            n_bins=64,
        ).observe(record.churn)
        self._count_fallbacks(record.read_fallbacks)
        self.metrics.counter(
            "repro_online_near_ties_total",
            help="Events whose warm and oracle values agree to 1e-9 "
            "relative while their points differ.",
        ).inc(int(record.near_tie))
        return record

    def _step(self, event: PlatformEvent) -> DisruptionRecord:
        t0 = time.perf_counter()
        classification = self._apply(event)
        stats = self._session.stats
        iterations_before, solves_before = stats.iterations, stats.n_solves
        solution, fell_back = self._extract(
            self._session, self._solve_incremental()
        )
        reoptimize_seconds = time.perf_counter() - t0
        warm_iterations = stats.iterations - iterations_before
        warm_solves = stats.n_solves - solves_before
        read_fallbacks = int(fell_back)

        oracle_iterations = oracle_value = oracle_match = None
        if self._oracle is not None:
            oracle_before = self._oracle.stats.iterations
            oracle_solution, fell_back = self._extract(
                self._oracle, self._oracle.solve(warm_basis=None)
            )
            read_fallbacks += int(fell_back)
            oracle_iterations = self._oracle.stats.iterations - oracle_before
            oracle_value = float(oracle_solution.value)
            oracle_match = bool(
                solution.value == oracle_solution.value
                and np.array_equal(solution.x, oracle_solution.x)
            )

        problem_now = self._current_problem()
        alloc = round_down(problem_now, solution)
        report = problem_now.check(alloc)
        if not report.ok:
            raise SolverError(
                f"online rounding produced an invalid allocation after "
                f"{event.kind} at t={event.time}: {report.violations[:3]}"
            )
        alloc_value = problem_now.objective_value(alloc)
        lp_value = float(solution.value)
        deficit = (
            max(0.0, 1.0 - alloc_value / lp_value) if lp_value > _CHURN_EPS else 0.0
        )

        prev = self._prev_alloc
        denom = max(
            float(np.abs(prev.alpha).sum()),
            float(np.abs(alloc.alpha).sum()),
            _CHURN_EPS,
        )
        churn = float(np.abs(alloc.alpha - prev.alpha).sum()) / denom
        beta_changes = int(np.count_nonzero(alloc.beta != prev.beta))

        simulated_value = None
        if self.options.replay and np.any(alloc.alpha):
            from repro.schedule.periodic import build_periodic_schedule
            from repro.simulation.engine import FlowSimulator

            schedule = build_periodic_schedule(
                problem_now.platform, alloc, denominator=self.options.denominator
            )
            result = FlowSimulator(problem_now.platform).run(
                schedule, n_periods=self.options.sim_periods
            )
            simulated_value = float(
                self.problem.objective.value(
                    result.achieved_throughputs(), self._payoffs
                )
            )

        record = DisruptionRecord(
            event=event,
            classification=classification,
            warm_iterations=int(warm_iterations),
            oracle_iterations=(
                int(oracle_iterations) if oracle_iterations is not None else None
            ),
            warm_solves=int(warm_solves),
            read_fallbacks=read_fallbacks,
            reoptimize_seconds=float(reoptimize_seconds),
            value=lp_value,
            oracle_value=oracle_value,
            oracle_match=oracle_match,
            solution_sha=_sha(solution.x),
            alloc_sha=_sha(alloc.alpha, alloc.beta),
            alloc_value=float(alloc_value),
            throughput_deficit=float(deficit),
            churn=churn,
            beta_changes=beta_changes,
            simulated_value=simulated_value,
        )
        self._records.append(record)
        self._solution = solution
        self._prev_alloc = alloc
        return record

    def run(self, trace: EventTrace) -> DisruptionReport:
        """Apply a whole trace in time order and aggregate the records."""
        if not isinstance(trace, EventTrace):
            raise SolverError(f"expected an EventTrace, got {trace!r}")
        records = [self.step(event) for event in trace]
        return DisruptionReport(
            trace=trace,
            records=tuple(records),
            initial_value=self.initial_value,
            initial_solution_sha=self.initial_solution_sha,
        )
