"""The :class:`Solver` facade: one configured object, reusable state.

The paper's evaluation is never "one problem, one solve": it sweeps four
heuristics and two objectives over many platform scenarios, and the
production framing of the ROADMAP (many tenants, many what-if queries,
same platforms) repeats *related* instances endlessly. The facade owns
the state that makes repetition cheap and keeps it across calls:

* an :class:`~repro.lp.builder.LPBuildCache` — assembled program-(7)
  templates keyed by platform fingerprint + objective + payoffs, so
  repeat solves of the same or an equal-but-distinct platform (pickled
  across a process boundary, re-loaded from disk) skip the COO assembly
  and the variable-index build entirely, plus a bounded memo of HiGHS
  optima keyed by the instance's content digest, so a relaxation
  solved once (a repeat request's LPRG relaxation; the LP bound, LPR
  and LPRG of one sweep task) is not handed to HiGHS again;
* a lazily created :class:`~repro.parallel.engine.CampaignEngine` for
  batched and swept execution under the config's ``jobs``.

Reuse is **bitwise-transparent**: cached templates are pristine copies
of what a cold build produces, a memoized optimum is a copy of what
HiGHS returned for the identical instance (HiGHS is deterministic on
identical input), and no simplex basis is ever carried between
independent solves, so a reused ``Solver`` returns what a fresh one
returns, and both return what the bare heuristic's ``run`` returns,
byte for byte (pinned by ``tests/test_api_solver.py``, by
``tests/test_lp_builder.py::TestSolutionMemo`` and by
``benchmarks/bench_api_reuse.py``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.api.config import SolverConfig
from repro.api.report import SolveReport
from repro.heuristics.base import get_heuristic
from repro.lp.builder import LPBuildCache, use_build_cache
from repro.obs.trace import current_tracer, use_tracer
from repro.parallel.engine import CampaignEngine
from repro.util.errors import SolverError
from repro.util.rng import spawn_seed_sequences

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import SteadyStateProblem
    from repro.experiments.config import Scenario, Setting
    from repro.experiments.runner import ExperimentRow
    from repro.parallel.stream import SweepAccumulator


class SolverState:
    """Cross-call warm state owned by one :class:`Solver`.

    Nothing here affects results — only how much work a repeat solve
    re-does. The LP cache (templates and memoized HiGHS optima) is
    installed around every solve via
    :func:`repro.lp.builder.use_build_cache` (outer-wins, so nested
    facade calls inside a batch share the batch's cache).

    Thread safety: the state's own solve counter holds an internal
    lock, and :class:`~repro.lp.builder.LPBuildCache` locks its lookups
    — so one :class:`Solver` may serve concurrent solves from many
    threads (the :mod:`repro.service` request path) with
    bitwise-identical results: reuse hands out pristine template
    copies, never shared mutable solve state.
    """

    def __init__(self):
        self.lp_cache = LPBuildCache()
        self.n_solves = 0
        self._lock = threading.RLock()

    def record_solves(self, n: int = 1) -> None:
        """Count ``n`` solves against this state (thread-safe)."""
        with self._lock:
            self.n_solves += n

    def stats(self) -> dict:
        """Counter snapshot (merged into every :class:`SolveReport`)."""
        out = dict(self.lp_cache.stats())
        with self._lock:
            out["n_solves"] = self.n_solves
        return out


@dataclasses.dataclass(frozen=True)
class _SolveTask:
    """One instance of a :meth:`Solver.solve_many` batch: the problem,
    its private seed and the batch config (telemetry off: the batch's
    own solver observes the batch)."""

    problem: "SteadyStateProblem"
    seed: np.random.SeedSequence
    config: SolverConfig


def _run_solve_task(task: _SolveTask) -> SolveReport:
    """Picklable engine worker for one batched solve."""
    return Solver(task.config).solve(
        task.problem, rng=np.random.default_rng(task.seed)
    )


class Solver:
    """Configured, stateful entry point to every algorithm.

    >>> from repro import Solver, SolverConfig
    >>> from repro.api import build_scenario
    >>> solver = Solver(SolverConfig(method="lprg"))
    >>> report = solver.solve(build_scenario("das2", rng=0))
    >>> report.value > 0 and report.config.method == "lprg"
    True

    One ``Solver`` instance is cheap to build but worth keeping: its
    :class:`SolverState` warm-starts every later call on the same (or an
    equal) platform. All methods are bitwise-deterministic given their
    ``rng``/``seed`` inputs, independent of state reuse and ``jobs``.
    """

    def __init__(self, config: "SolverConfig | None" = None):
        self.config = config if config is not None else SolverConfig()
        self.state = SolverState()
        self._engine: "CampaignEngine | None" = None
        self.tracer = None
        self.metrics = None
        self._trace_sink = None
        telemetry = self.config.telemetry
        if telemetry is not None and telemetry.trace:
            from repro.obs.trace import JsonlTraceSink, Tracer

            self.tracer = Tracer()
            if telemetry.trace_path is not None:
                self._trace_sink = JsonlTraceSink(telemetry.trace_path)
        if telemetry is not None and telemetry.metrics:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()

    @classmethod
    def for_method(cls, method: str = "lprg", **kwargs) -> "Solver":
        """Shorthand: ``Solver(SolverConfig.for_method(method, **kwargs))``."""
        return cls(SolverConfig.for_method(method, **kwargs))

    def __repr__(self) -> str:
        return f"Solver(method={self.config.method!r}, solves={self.state.n_solves})"

    # ------------------------------------------------------------------
    @property
    def engine(self) -> CampaignEngine:
        """The lazily created campaign engine for batched execution."""
        if self._engine is None:
            with self.state._lock:
                if self._engine is None:
                    self._engine = CampaignEngine(
                        _run_solve_task,
                        jobs=self.config.jobs,
                        chunk_size=self.config.chunk_size,
                        retry_policy=self.config.retry,
                    )
        return self._engine

    def _problem_for(self, problem: "SteadyStateProblem") -> "SteadyStateProblem":
        """Apply the config's objective override, if any."""
        objective = self.config.objective
        if objective is not None and problem.objective.name != objective:
            problem = problem.with_objective(objective)
        return problem

    def _rng_for(self, rng):
        return rng if rng is not None else self.config.seed

    @contextmanager
    def _observed(self, name: str, **attrs):
        """Open a top-level telemetry span around one facade operation.

        Installs the solver-owned tracer when ``config.telemetry`` asks
        for one (outer-wins: an ambient tracer from the CLI ``trace``
        wrapper or a service job keeps collecting instead), yields the
        open span (the shared null span when tracing is off everywhere),
        and on exit flushes finished trees to the configured JSONL sink
        and folds the operation into the solver metrics registry.
        Telemetry state never feeds back into the solve itself.
        """
        start = time.perf_counter() if self.metrics is not None else 0.0
        if self.tracer is not None:
            installer = use_tracer(self.tracer)
        else:
            installer = None
        try:
            if installer is not None:
                installer.__enter__()
            tracer = current_tracer()
            with tracer.span(name, **attrs) as span:
                yield span
        finally:
            if installer is not None:
                installer.__exit__(None, None, None)
                if self._trace_sink is not None:
                    self._trace_sink.write(self.tracer)
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_solver_operations_total",
                    help="Facade operations by kind.",
                    labels={"op": name},
                ).inc()
                self.metrics.histogram(
                    "repro_solver_operation_seconds",
                    help="Facade operation latency.",
                    labels={"op": name},
                    lo=0.0,
                    hi=60.0,
                    n_bins=64,
                ).observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    def solve(self, problem: "SteadyStateProblem", rng=None) -> SolveReport:
        """Solve one problem under this solver's configuration.

        ``rng`` overrides the config's ``seed`` for this call. The
        returned :class:`SolveReport` is a ``HeuristicResult`` whose
        base fields are bitwise-equal to those of
        ``get_heuristic(method).run(problem, rng=rng,
        **config.method_kwargs())``.
        """
        config = self.config
        heuristic = get_heuristic(config.method)
        problem = self._problem_for(problem)
        self.state.record_solves(1)
        with self._observed(
            "solve", method=config.method, objective=problem.objective.name
        ) as span:
            with use_build_cache(self.state.lp_cache):
                result = heuristic.run(
                    problem, rng=self._rng_for(rng), **config.method_kwargs()
                )
                # Defensive: every public entry point re-validates.
                if result.allocation is not None:
                    problem.check(result.allocation).raise_if_invalid()
            lp_stats = result.meta.get("lp_stats")
            if lp_stats is not None:
                span.set(
                    iterations=lp_stats.get("iterations"),
                    n_warm=lp_stats.get("n_warm"),
                    n_cold=lp_stats.get("n_cold"),
                )
        return SolveReport.from_result(
            result, config=config, cache_stats=self.state.stats()
        )

    # ------------------------------------------------------------------
    def solve_many(
        self,
        problems: "Sequence[SteadyStateProblem]",
        rng=None,
        seeds: "Sequence[int | None] | None" = None,
    ) -> "list[SolveReport]":
        """Solve many independent problems; results in input order.

        Instance ``i`` solves under the ``i``-th stateless spawn child
        of ``rng`` (or the config's ``seed``), so results are a pure
        function of ``(problems, config, rng)``, independent of ``jobs``
        and chunking. With ``jobs == 1`` the batch runs inline and every
        instance shares this solver's warm state.

        ``seeds`` replaces the spawn derivation with *explicit*
        per-instance seeds: instance ``i`` solves exactly as
        ``self.solve(problems[i], rng=seeds[i])`` would (bitwise). This
        is the contract the :mod:`repro.service` request coalescer builds
        on — independent requests, each carrying its own seed, can be
        batched through one ``solve_many`` call without changing any
        response. ``seeds`` and ``rng`` are mutually exclusive; a
        ``None`` entry draws fresh entropy for that instance (the
        single-solve default).
        """
        problems = [self._problem_for(p) for p in problems]
        if seeds is not None:
            if rng is not None:
                raise SolverError(
                    "pass either rng (one batch seed, spawn-derived) or "
                    "seeds (explicit per-instance seeds), not both"
                )
            seeds = list(seeds)
            if len(seeds) != len(problems):
                raise SolverError(
                    f"{len(problems)} problems but {len(seeds)} seeds"
                )
            seed_seqs = [
                np.random.SeedSequence(None if s is None else int(s))
                for s in seeds
            ]
        else:
            seed_seqs = spawn_seed_sequences(self._rng_for(rng), len(problems))
        config = self.config
        if config.telemetry is not None:
            config = dataclasses.replace(config, telemetry=None)
        tasks = [
            _SolveTask(problem=p, seed=s, config=config)
            for p, s in zip(problems, seed_seqs)
        ]
        self.state.record_solves(len(problems))
        with self._observed("solve_many", n_problems=len(problems)):
            with use_build_cache(self.state.lp_cache):
                results = self.engine.run(tasks)
        # Each task ran through a throwaway per-call Solver (inline ones
        # fed this solver's cache via the outer-wins context; pooled
        # ones ran in their worker process), so re-stamp the reports
        # with the *batch* config and this solver's cache counters —
        # the contract is that a report describes its owning solver.
        stats = self.state.stats()
        return [
            SolveReport.from_result(r, config=self.config, cache_stats=stats)
            for r in results
        ]

    # ------------------------------------------------------------------
    def sweep(
        self,
        settings: "Sequence[Setting]",
        scenario: "Scenario | str | None" = None,
        methods: "Sequence[str] | None" = None,
        objectives: "Sequence[str] | None" = None,
        n_platforms: "int | None" = None,
        rng=None,
        progress: "bool | Callable[[int, int], None]" = False,
        on_rows: "Callable[[Sequence], None] | None" = None,
    ) -> "list[ExperimentRow] | SweepAccumulator":
        """Run a Section-6 style sweep over many grid points.

        Execution (``jobs``, ``chunk_size``, ``checkpoint``, ``resume``,
        ``stream``, ``row_sink``, ``shards``) comes from the config; the
        sweep definition from the arguments. ``scenario`` accepts an
        :class:`~repro.experiments.config.Scenario`, a registered
        sweep-scenario name (see :mod:`repro.api.scenarios`), or
        ``None`` for the calibrated default. Rows are bitwise-identical
        for any ``jobs``/chunking/resume pattern (stateless per-task
        seeds).

        With ``stream=True`` the sweep never materialises its row list:
        completed tasks are folded — in task-index order, so the result
        is still bitwise-identical for any execution pattern — into a
        :class:`~repro.parallel.stream.SweepAccumulator`, which is
        returned in place of the rows; ``row_sink`` diverts the raw
        rows to a JSONL/CSV file. An unwritable ``row_sink`` path fails
        with :class:`~repro.util.errors.SolverError` *before* any task
        runs.

        With ``shards=N > 1`` (requires ``stream=True``) the campaign
        runs through the :mod:`repro.distrib` orchestration layer: N
        contiguous shard manifests, the configured ``shard_backend``
        executor, per-shard checkpoints under ``shard_dir``, and an
        exactly-associative merge — the returned aggregate (and the
        assembled ``row_sink``) are bitwise those of the unsharded
        serial sweep.

        ``progress`` may be a callable ``(done, total)`` instead of the
        printing boolean — the hook a supervising caller (the service
        job runner) uses to surface live completion counts.

        ``on_rows`` (requires ``stream=True``, incompatible with
        ``shards > 1`` — sharded rows materialise in other processes)
        registers a per-task row callback: every folded task's rows are
        handed to it *in task-index order*, after they are written to
        the ``row_sink``. This is the incremental streaming feed of the
        :mod:`repro.service` ``/jobs/{id}/stream`` endpoint; the
        callback observes exactly the rows (and order) of the serial
        reference fold.
        """
        from repro.api.scenarios import scenario_registry
        from repro.experiments.config import DEFAULT_SCENARIO
        from repro.experiments.persistence import row_from_dict, row_to_dict
        from repro.experiments.runner import DEFAULT_METHODS, DEFAULT_OBJECTIVES
        from repro.parallel import (
            CampaignCheckpoint,
            CampaignEngine,
            build_sweep_tasks,
            run_sweep_task,
            sweep_fingerprint,
        )
        from repro.parallel.stream import (
            StreamFold,
            SweepAccumulator,
            open_row_sink,
            snapshot_compatible,
            validate_row_sink_path,
        )
        from repro.util.rng import seed_sequence_of

        config = self.config
        if config.row_sink is not None:
            validate_row_sink_path(config.row_sink)  # fail before any work
        if on_rows is not None:
            if not config.stream:
                raise SolverError(
                    "on_rows requires stream=True (rows are only folded "
                    "incrementally under streaming aggregation)"
                )
            if config.shards > 1:
                raise SolverError(
                    "on_rows is incompatible with shards > 1: sharded "
                    "campaigns fold their rows inside the shard "
                    "executors, not in this process"
                )
        if scenario is None:
            scenario = DEFAULT_SCENARIO
        elif isinstance(scenario, str):
            scenario = scenario_registry().sweep_scenario(scenario)
        methods = tuple(DEFAULT_METHODS if methods is None else methods)
        objectives = tuple(
            DEFAULT_OBJECTIVES if objectives is None else objectives
        )
        settings = list(settings)
        n_platforms = (
            scenario.platforms_per_setting if n_platforms is None else n_platforms
        )
        # Resolve the root seed once: with rng=None a fresh random root
        # is drawn, and the task seeds and the checkpoint fingerprint
        # must both describe that same root.
        root = seed_sequence_of(self._rng_for(rng))

        if config.shards > 1:
            # Sharded multi-host orchestration (repro.distrib): the
            # campaign is planned into contiguous shard manifests,
            # dispatched through the configured executor backend, and
            # merged — bitwise-identical to the serial path below for
            # any shard count/backend (exactly-associative merge).
            from repro.distrib import run_sharded_sweep

            reporter = None
            if callable(progress):
                reporter = progress
            elif progress:  # pragma: no cover - cosmetic
                def reporter(done: int, total: int) -> None:
                    print(f"  [{done}/{total}] shards", flush=True)

            return run_sharded_sweep(
                settings,
                scenario,
                methods,
                objectives,
                n_platforms,
                root,
                n_shards=config.shards,
                backend=config.shard_backend,
                shard_dir=config.shard_dir,
                row_sink=config.row_sink,
                resume=config.resume,
                # the facade convention holds for shards too: jobs is
                # the exact concurrency, and jobs=1 runs one shard at a
                # time (direct repro.distrib callers can pass jobs=None
                # for the backend's auto default)
                jobs=config.jobs,
                progress=reporter,
                retry=config.retry,
                supervision=config.supervision,
            )

        tasks = build_sweep_tasks(
            settings, scenario, methods, objectives, n_platforms, root
        )
        task_ids = [t.task_id for t in tasks]

        store = None
        if config.checkpoint is not None:
            store = CampaignCheckpoint(
                config.checkpoint,
                fingerprint=sweep_fingerprint(
                    settings, scenario, methods, objectives, n_platforms, root
                ),
                resume=config.resume,
                encode=lambda rows: [row_to_dict(r) for r in rows],
                decode=lambda rows: [row_from_dict(r) for r in rows],
                meta={"n_tasks": len(tasks), "kind_detail": "sweep"},
                # streaming resume: lets a loaded accumulator snapshot
                # release the row payloads of the prefix it covers
                ordered_task_ids=task_ids if config.stream else None,
                # ...unless the snapshot predates this build's
                # accumulator format, in which case it is discarded
                # (warn + record replay) instead of crashing on restore
                snapshot_validator=snapshot_compatible if config.stream else None,
            )

        fold = None
        if config.stream:
            sink = open_row_sink(config.row_sink)
            if on_rows is not None:
                from repro.parallel.stream import CallbackRowSink

                sink = CallbackRowSink(on_rows, sink)
            fold = StreamFold(
                SweepAccumulator(),
                n_tasks=len(tasks),
                sink=sink,
                task_ids=task_ids,
                checkpoint=store,
            )
            if store is not None and store.saved_state is not None:
                fold.restore(store.saved_state)
            else:
                fold.start()

        reporter = None
        if callable(progress):
            reporter = progress
        elif progress:  # pragma: no cover - cosmetic
            start = time.perf_counter()

            def reporter(done: int, total: int) -> None:
                elapsed = time.perf_counter() - start
                print(
                    f"  [{done}/{total}] tasks ({elapsed:.1f}s elapsed)",
                    flush=True,
                )

        engine = CampaignEngine(
            run_sweep_task,
            jobs=config.jobs,
            chunk_size=config.chunk_size,
            retry_policy=config.retry,
        )
        try:
            with self._observed(
                "campaign",
                n_tasks=len(tasks),
                jobs=config.jobs,
                stream=bool(config.stream),
            ):
                with use_build_cache(self.state.lp_cache):
                    per_task = engine.run(
                        tasks,
                        task_ids=task_ids,
                        checkpoint=store,
                        progress=reporter,
                        consumer=fold,
                    )
            if fold is not None:
                # Final snapshot must land before the checkpoint closes.
                return fold.finalize()
        finally:
            if fold is not None:
                fold.sink.close()  # idempotent; releases the file on error
            if store is not None:
                store.close()
        return [row for rows in per_task for row in rows]

    # ------------------------------------------------------------------
    def run_online(self, scenario, events, rng=None):
        """Re-schedule a scenario online while an event trace perturbs it.

        The facade entry of the :mod:`repro.dynamic` subsystem:

        * ``scenario`` — a :class:`~repro.core.problem.SteadyStateProblem`
          or a registered *platform* scenario name (``"das2"``,
          ``"table1-small"``, ...);
        * ``events`` — an :class:`~repro.dynamic.events.EventTrace` or a
          registered *events* scenario name (``"drift-heavy"``,
          ``"failure-storm"``, ``"churn"``), instantiated against the
          scenario's platform;
        * ``rng`` — overrides the config's ``seed``; two stateless
          spawn children derive the scenario build and the trace
          generation, so a report is a pure function of
          ``(scenario, events, config, rng)``.

        The run honors ``config.dynamic`` (:class:`~repro.dynamic.
        options.DynamicOptions`) and ``config.warm_start`` (``False``
        re-solves cold at every event — same answers, no pivot
        savings), and shares this solver's LP build cache, so structural
        churn events rebuilding a previously seen payoff mix hit the
        template cache.
        Returns a :class:`~repro.dynamic.online.DisruptionReport`.
        """
        from repro.api.scenarios import scenario_registry
        from repro.dynamic.events import EventTrace
        from repro.dynamic.online import OnlineScheduler

        build_seed, trace_seed = spawn_seed_sequences(self._rng_for(rng), 2)
        if isinstance(scenario, str):
            problem = scenario_registry().build_problem(
                scenario,
                objective=self.config.objective or "maxmin",
                rng=np.random.default_rng(build_seed),
            )
        else:
            problem = self._problem_for(scenario)
        if isinstance(events, str):
            trace = scenario_registry().event_trace(
                events, problem, rng=np.random.default_rng(trace_seed)
            )
        elif isinstance(events, EventTrace):
            trace = events
        else:
            raise SolverError(
                f"events must be an EventTrace or a registered events-"
                f"scenario name, got {events!r}"
            )
        self.state.record_solves(1)
        with self._observed("online", n_events=len(trace)):
            with use_build_cache(self.state.lp_cache):
                scheduler = OnlineScheduler(
                    problem,
                    options=self.config.dynamic,
                    warm_start=self.config.warm_start,
                )
                return scheduler.run(trace)

    # ------------------------------------------------------------------
    def solve_scenario(self, name: str, rng=None) -> SolveReport:
        """Build a registered platform scenario by name and solve it.

        Derives two stateless seed-sequence children of ``rng`` (or the
        config's ``seed``): one for scenario construction, one for the
        solve — so the pair is reproducible from a single seed.
        """
        from repro.api.scenarios import scenario_registry

        build_seed, solve_seed = spawn_seed_sequences(self._rng_for(rng), 2)
        problem = scenario_registry().build_problem(
            name,
            objective=self.config.objective or "maxmin",
            rng=np.random.default_rng(build_seed),
        )
        return self.solve(problem, rng=np.random.default_rng(solve_seed))
