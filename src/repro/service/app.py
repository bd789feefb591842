"""The resident solver service and its ASGI application factory.

:class:`SolverService` is the HTTP-free core: it owns the warm
:class:`~repro.service.pool.SolverPool`, the request
:class:`~repro.service.coalescer.RequestCoalescer`, the job store, the
event broker and a worker thread-pool, and exposes the operations the
routes map onto. Everything it consumes and produces is plain JSON
dicts, so it is directly drivable from tests and benchmarks without a
socket in sight.

Request/response contracts (see ``docs/architecture.md`` for the flow
diagram):

``POST /solve`` body::

    {"scenario": "das2",        # platform scenario name (required)
     "objective": "maxmin",     # optional; config.objective wins
     "seed": 123,               # solve seed (int, optional)
     "scenario_seed": 7,        # platform-build seed (default: seed)
     "config": {...},           # partial SolverConfig dict
     "async": false,            # true -> job instead of inline result
     "coalesce": true}          # opt out of request batching

The response is bitwise the report of::

    Solver(cfg).solve(
        build_scenario(name, objective, rng=default_rng(scenario_seed)),
        rng=seed)

independent of how many concurrent requests were coalesced into one
``solve_many`` batch (the facade's explicit-seeds contract).

Dispatch is leader/follower: a solve for an idle pool key runs at once
on a coalescer worker, and requests for that key arriving meanwhile
form the next batch as soon as it ends — no request waits out a timer.
The pooled solver's :class:`~repro.lp.builder.LPBuildCache` holds both
the assembled LP templates and a memo of HiGHS optima, so a repeat
request for a platform skips the COO assembly and, when its relaxation
was solved before (LPRG's single LP always is), the HiGHS solve too;
``GET /stats`` shows both as ``build_hits`` and ``solution_hits`` under
``pool.solver_totals``.

``POST /sweep`` body::

    {"settings": [{"K": 5, ...}, ...]   # explicit grid points, or:
     "n_settings": 8, "k_values": [5, 10], "settings_seed": 0,
     "scenario": "calibrated",  # sweep scenario name or Scenario dict
     "methods": [...], "objectives": [...], "n_platforms": 3,
     "seed": 42,                # campaign root seed
     "config": {...},           # partial SolverConfig (stream forced on)
     "hold": false}             # true -> create held, start explicitly

Sweeps are always jobs; their rows stream over ``GET
/jobs/{id}/stream`` as they fold (strict task-index order — the serial
reference order). The *guaranteed-complete* streaming recipe: submit
with ``"hold": true``, open the stream (the first ``status`` event
confirms the subscription), then ``POST /jobs/{id}/start`` — every row
of the campaign arrives on that stream.
"""

from __future__ import annotations

import queue
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from repro.api.config import SolverConfig, config_fingerprint
from repro.api.scenarios import scenario_registry
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.trace import Tracer, use_tracer
from repro.platform.serialization import platform_fingerprint
from repro.service.asgi import AsgiApp
from repro.service.coalescer import RequestCoalescer
from repro.service.errors import ServiceError
from repro.service.jobstore import JobRecord, JobStore, open_job_store
from repro.service.pool import SolverPool
from repro.service.sse import TERMINAL_EVENTS, JobEventBroker
from repro.util.errors import SolverError


def _config_from(payload: dict, force_stream: bool = False) -> SolverConfig:
    """Build the request's :class:`SolverConfig` (partial dicts fine).

    A config the facade rejects is the client's error: HTTP 400 with
    the facade's message, never a 500.
    """
    data = dict(payload.get("config") or {})
    if "method" not in data and payload.get("method") is not None:
        data["method"] = payload["method"]
    if force_stream:
        data["stream"] = True
    shards = data.get("shards", 1)
    try:
        if isinstance(shards, int) and shards > 1:
            raise ServiceError(
                "shards > 1 is not available through the service: sharded "
                "rows fold inside the shard executors and cannot stream"
            )
        return SolverConfig.from_dict(data)
    except (SolverError, ValueError, TypeError) as exc:
        raise ServiceError(f"invalid config: {exc}") from None


def _int_or_none(value, field: str) -> "int | None":
    """``value`` as an int, ``None`` kept (the field is absent). Every
    integer field is a count, a seed or a K, so a value ``int()`` refuses
    or a negative one is the client's error, HTTP 400 naming ``field``."""
    if value is None:
        return None
    try:
        number = int(value)
    except (TypeError, ValueError):
        number = None
    if number is None or number < 0:
        raise ServiceError(f"{field!r} must be a non-negative integer, got {value!r}")
    return number


def _flag(payload: dict, key: str, default: bool) -> bool:
    """The request flag ``key``, ``default`` when absent or null. Only a
    JSON boolean is read: ``bool("false")`` is ``True``, so any other
    value is the client's error, HTTP 400 naming ``key``."""
    value = payload.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise ServiceError(f"{key!r} must be true or false, got {value!r}")
    return value


def _settings_from(raw) -> list:
    """The explicit grid points of a ``POST /sweep`` body."""
    from repro.experiments.config import Setting

    try:
        return [Setting.from_dict(data) for data in raw]
    except KeyError as exc:
        raise ServiceError(f"setting is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"invalid entry in 'settings': {exc}") from None


def _scenario_from(payload: dict) -> "tuple[object, str]":
    """Resolve the sweep scenario and a stable pool-affinity key."""
    import hashlib
    import json as _json

    from repro.experiments.config import DEFAULT_SCENARIO, Scenario

    raw = payload.get("scenario")
    if raw is None:
        return DEFAULT_SCENARIO, "sweep:default"
    if isinstance(raw, str):
        try:
            return scenario_registry().sweep_scenario(raw), f"sweep:{raw.lower()}"
        except ValueError as exc:
            raise ServiceError(str(exc), status=400) from None
    if isinstance(raw, dict):
        try:
            scenario = Scenario.from_dict(raw)
        except ValueError as exc:
            raise ServiceError(f"bad scenario dict: {exc}") from None
        digest = hashlib.sha256(
            _json.dumps(raw, sort_keys=True).encode()
        ).hexdigest()[:16]
        return scenario, f"sweep:inline:{digest}"
    raise ServiceError("scenario must be a name or a Scenario dict")


class SolverService:
    """The long-lived core behind the HTTP surface."""

    #: per-job traces retained in memory (LRU; traces are debugging
    #: artifacts, not results — old ones are droppable)
    MAX_TRACES = 256

    def __init__(
        self,
        job_store: "JobStore | str | None" = None,
        max_solvers: int = 32,
        max_workers: int = 8,
        max_coalesce_batch: int = 64,
    ):
        if isinstance(job_store, JobStore):
            self.jobs = job_store
        else:
            self.jobs = open_job_store(job_store)
        # One registry for the whole process: the pool, the coalescer
        # and the request layer all register their families here, so
        # ``GET /metrics`` is a single consistent snapshot.
        self.metrics = MetricsRegistry()
        self.pool = SolverPool(max_solvers=max_solvers, metrics=self.metrics)
        self.coalescer = RequestCoalescer(
            max_batch=max_coalesce_batch, metrics=self.metrics
        )
        self._solves_counter = self.metrics.counter(
            "repro_solves_total",
            help="Solve reports produced (sync and async).",
        )
        self._lp_iterations = self.metrics.counter(
            "repro_lp_iterations_total",
            help="Simplex iterations spent across all solve reports.",
        )
        self.broker = JobEventBroker()
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job"
        )
        self.started_at = time.time()  # wall clock: display only
        self._started_monotonic = time.monotonic()  # uptime arithmetic
        self._id_lock = threading.Lock()
        self._next_id = self._seed_id_counter()
        self._specs: "dict[str, dict]" = {}  # runtime-only sweep specs
        self._trace_lock = threading.Lock()
        self._traces: "OrderedDict[str, list]" = OrderedDict()
        self._closed = False

    def _seed_id_counter(self) -> int:
        """Continue numbering past any journal-loaded job ids."""
        highest = 0
        for record in self.jobs.list_jobs():
            found = re.search(r"(\d+)$", record.job_id)
            if found:
                highest = max(highest, int(found.group(1)))
        return highest

    def new_job_id(self, kind: str) -> str:
        with self._id_lock:
            self._next_id += 1
            return f"{kind}-{self._next_id:06d}"

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------
    def _build_solve(self, payload: dict):
        name = payload.get("scenario")
        if not isinstance(name, str):
            raise ServiceError(
                "solve request needs a 'scenario' platform-scenario name "
                f"(one of {list(scenario_registry().names('platform'))})"
            )
        config = _config_from(payload)
        seed = _int_or_none(payload.get("seed"), "seed")
        scenario_seed = _int_or_none(
            payload.get("scenario_seed", seed), "scenario_seed"
        )
        objective = payload.get("objective") or config.objective or "maxmin"
        try:
            problem = scenario_registry().build_problem(
                name,
                objective=objective,
                rng=np.random.default_rng(scenario_seed),
            )
        except ValueError as exc:
            raise ServiceError(str(exc), status=400) from None
        fingerprint = platform_fingerprint(problem.platform)
        return problem, fingerprint, config, seed

    def submit_solve(self, payload: dict) -> "tuple[str, dict]":
        """Handle one ``POST /solve``; returns ``(kind, payload)`` with
        kind ``"report"`` (synchronous) or ``"job"`` (``"async": true``).
        """
        self._check_open()
        coalesce = _flag(payload, "coalesce", True)
        wants_async = _flag(payload, "async", False)
        problem, fingerprint, config, seed = self._build_solve(payload)
        solver = self.pool.solver_for(fingerprint, config)
        job_id = self.new_job_id("solve") if wants_async else None
        if coalesce:
            future = self.coalescer.submit(
                self.pool.key_for(fingerprint, config), solver, problem, seed
            )
        elif job_id is not None:
            # Uncoalesced async solves get a per-job trace (a coalesced
            # batch is shared across callers, so it has no single owner).
            future = self.executor.submit(
                self._traced_call, job_id, solver.solve, problem, rng=seed
            )
        else:
            future = self.executor.submit(solver.solve, problem, rng=seed)
        if not wants_async:
            report = future.result()
            self._record_report(report)
            return "report", report.to_dict()

        self.jobs.create(
            JobRecord(job_id, kind="solve", status="running", request=payload)
        )

        def finish(fut):
            try:
                report = fut.result()
            except Exception as exc:  # noqa: BLE001 - job boundary
                self._fail_job(job_id, exc)
            else:
                self._record_report(report)
                self.jobs.update(
                    job_id, status="done", result={"report": report.to_dict()}
                )
                self.broker.publish(
                    job_id, "done", {"job_id": job_id, "status": "done"}
                )

        future.add_done_callback(finish)
        return "job", self.jobs.get(job_id).to_dict()

    def _record_report(self, report) -> None:
        """Fold one finished report into the service counters."""
        self._solves_counter.inc()
        lp_stats = report.lp_stats or {}
        iterations = int(lp_stats.get("iterations", 0))
        if iterations > 0:
            self._lp_iterations.inc(iterations)

    def _traced_call(self, job_id: str, fn, *args, **kwargs):
        """Run ``fn`` under a fresh per-job tracer; retain its trees."""
        tracer = Tracer()
        try:
            with use_tracer(tracer):
                return fn(*args, **kwargs)
        finally:
            self._store_trace(job_id, tracer.to_dicts())

    def _store_trace(self, job_id: str, trace: list) -> None:
        with self._trace_lock:
            self._traces[job_id] = trace
            self._traces.move_to_end(job_id)
            while len(self._traces) > self.MAX_TRACES:
                self._traces.popitem(last=False)

    # ------------------------------------------------------------------
    # sweep jobs
    # ------------------------------------------------------------------
    def submit_sweep(self, payload: dict) -> dict:
        """Handle one ``POST /sweep``: create (and maybe start) a job."""
        self._check_open()
        hold = _flag(payload, "hold", False)
        scenario, scenario_key = _scenario_from(payload)
        config = _config_from(payload, force_stream=True)
        if payload.get("settings") is not None:
            settings = _settings_from(payload["settings"])
        elif payload.get("n_settings") is not None:
            from repro.experiments.config import sample_settings

            k_values = payload.get("k_values")
            if k_values is not None:
                if not isinstance(k_values, list) or not k_values or None in k_values:
                    raise ServiceError(
                        f"'k_values' must be a non-empty list of integers, "
                        f"got {k_values!r}"
                    )
                k_values = [_int_or_none(k, "k_values") for k in k_values]
            settings = sample_settings(
                _int_or_none(payload["n_settings"], "n_settings"),
                rng=np.random.default_rng(
                    _int_or_none(payload.get("settings_seed", 0), "settings_seed")
                ),
                k_values=k_values,
            )
        else:
            raise ServiceError(
                "sweep request needs 'settings' (explicit grid points) or "
                "'n_settings' (sampled)"
            )
        if not settings:
            raise ServiceError("sweep request has no settings")
        spec = {
            "settings": settings,
            "scenario": scenario,
            "pool_key": scenario_key,
            "config": config,
            "methods": payload.get("methods"),
            "objectives": payload.get("objectives"),
            "n_platforms": payload.get("n_platforms"),
            "seed": _int_or_none(payload.get("seed"), "seed"),
        }
        job_id = self.new_job_id("sweep")
        self.jobs.create(
            JobRecord(
                job_id,
                kind="sweep",
                status="held" if hold else "queued",
                request=payload,
                progress={"done": 0, "total": None},
            )
        )
        with self._id_lock:
            self._specs[job_id] = spec
        if not hold:
            self.executor.submit(self._run_sweep_job, job_id)
        return self.jobs.get(job_id).to_dict()

    def start_job(self, job_id: str) -> dict:
        """Release a held job (``POST /jobs/{id}/start``)."""
        self._check_open()
        record = self.jobs.get(job_id)
        if record.status != "held":
            raise ServiceError(
                f"job {job_id} is {record.status!r}, only held jobs can be "
                "started",
                status=409,
            )
        record = self.jobs.update(job_id, status="queued")
        self.executor.submit(self._run_sweep_job, job_id)
        return record.to_dict()

    def restart_job(self, job_id: str) -> dict:
        """Resubmit a terminal job (``POST /jobs/{id}/restart``).

        Jobs found ``running``/``queued`` when a journal is replayed are
        marked ``interrupted`` — the in-flight work died with the old
        process and cannot be resumed mid-stream. Restart is the
        explicit recovery path: the journaled ``request`` that created
        the job is resubmitted *as a new job* (fresh id, fresh
        lifecycle), and the old record stays in the history untouched.
        Non-terminal jobs 409 — they are still owned by a live worker;
        so do jobs whose journal predates request echoing (nothing to
        resubmit from).
        """
        self._check_open()
        record = self.jobs.get(job_id)
        if not record.is_terminal:
            raise ServiceError(
                f"job {job_id} is {record.status!r}; only terminal jobs "
                "(done/failed/cancelled/interrupted) can be restarted",
                status=409,
            )
        if not record.request:
            raise ServiceError(
                f"job {job_id} has no journaled request to resubmit",
                status=409,
            )
        if record.kind == "sweep":
            payload = self.submit_sweep(record.request)
        else:
            _, payload = self.submit_solve({**record.request, "async": True})
        payload = dict(payload)
        payload["restarted_from"] = job_id
        return payload

    def _run_sweep_job(self, job_id: str) -> None:
        with self._id_lock:
            spec = self._specs.pop(job_id, None)
        if spec is None:  # pragma: no cover - double-start guard
            return
        tracer = Tracer()
        with use_tracer(tracer):
            try:
                self._execute_sweep(job_id, spec)
            finally:
                self._store_trace(job_id, tracer.to_dicts())

    def _execute_sweep(self, job_id: str, spec: dict) -> None:
        try:
            self.jobs.update(job_id, status="running")
            solver = self.pool.solver_for(spec["pool_key"], spec["config"])

            from repro.experiments.persistence import row_to_dict

            def on_rows(rows) -> None:
                self.broker.publish(
                    job_id, "rows", {"rows": [row_to_dict(r) for r in rows]}
                )

            def progress(done: int, total: int) -> None:
                self.jobs.update(
                    job_id, progress={"done": done, "total": total}
                )
                self.broker.publish(
                    job_id, "progress", {"done": done, "total": total}
                )

            accumulator = solver.sweep(
                spec["settings"],
                scenario=spec["scenario"],
                methods=spec["methods"],
                objectives=spec["objectives"],
                n_platforms=spec["n_platforms"],
                rng=spec["seed"],
                progress=progress,
                on_rows=on_rows,
            )
            result = {
                "tables": accumulator.tables(),
                "accumulator_state": accumulator.state_dict(),
            }
            self.jobs.update(job_id, status="done", result=result)
            self.broker.publish(
                job_id, "done", {"job_id": job_id, "status": "done"}
            )
        except Exception as exc:  # noqa: BLE001 - job boundary
            self._fail_job(job_id, exc)

    def _fail_job(self, job_id: str, exc: BaseException) -> None:
        message = f"{type(exc).__name__}: {exc}"
        self.jobs.update(job_id, status="failed", error=message)
        self.broker.publish(
            job_id, "failed", {"job_id": job_id, "status": "failed",
                               "error": message}
        )

    # ------------------------------------------------------------------
    # job inspection / streaming
    # ------------------------------------------------------------------
    def job_status(self, job_id: str) -> dict:
        return self.jobs.get(job_id).status_dict()

    def job_result(self, job_id: str) -> dict:
        record = self.jobs.get(job_id)
        if record.status != "done":
            raise ServiceError(
                f"job {job_id} is {record.status!r}"
                + (f": {record.error}" if record.error else "")
                + "; result only exists once done",
                status=409,
            )
        return {
            "job_id": record.job_id,
            "kind": record.kind,
            "result": record.result,
        }

    def list_jobs(self) -> "list[dict]":
        return [record.status_dict() for record in self.jobs.list_jobs()]

    def stream_events(
        self, job_id: str, keepalive: float = 15.0
    ) -> "Iterator[tuple[str, dict]]":
        """Yield ``(event, data)`` pairs for a job until it terminates.

        Subscribe-then-snapshot ordering closes the terminal race: the
        runner updates the store *before* publishing its terminal event,
        so either the snapshot already shows a terminal status (emit it
        synthetically) or the queue is guaranteed to deliver it.
        """
        self.jobs.get(job_id)  # 404 before the response starts
        subscription = self.broker.subscribe(job_id)
        try:
            record = self.jobs.get(job_id)
            yield "status", record.status_dict()
            if record.is_terminal:
                data = {"job_id": job_id, "status": record.status}
                if record.error:
                    data["error"] = record.error
                yield record.status, data
                return
            while True:
                try:
                    event = subscription.get(timeout=keepalive)
                except queue.Empty:
                    yield "keepalive", {}
                    continue
                name = event["event"]
                data = {k: v for k, v in event.items() if k != "event"}
                yield name, data
                if name in TERMINAL_EVENTS:
                    return
        finally:
            self.broker.unsubscribe(job_id, subscription)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        by_status: "dict[str, int]" = {}
        for record in self.jobs.list_jobs():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            # monotonic arithmetic: immune to wall-clock steps (NTP)
            "uptime": time.monotonic() - self._started_monotonic,
            "jobs": by_status,
            "pool": self.pool.stats(),
            "coalescer": self.coalescer.stats(),
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition).

        Job-status gauges are refreshed from the store at render time;
        everything else is served live from the shared registry.
        """
        by_status: "dict[str, int]" = {}
        for record in self.jobs.list_jobs():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        for status in ("queued", "running", "done", "failed", *by_status):
            self.metrics.gauge(
                "repro_jobs",
                help="Jobs by status.",
                labels={"status": status},
            ).set(by_status.get(status, 0))
        return render_prometheus(self.metrics)

    def job_trace(self, job_id: str) -> dict:
        """The retained span trees for a job (``GET /jobs/{id}/trace``)."""
        record = self.jobs.get(job_id)  # 404 on unknown jobs first
        with self._trace_lock:
            trace = self._traces.get(job_id)
        if trace is None:
            raise ServiceError(
                f"job {job_id} has no retained trace (status "
                f"{record.status!r}; traces cover jobs executed by this "
                "process and are evicted oldest-first)",
                status=404,
            )
        return {"job_id": job_id, "trace": trace}

    def describe(self) -> dict:
        """The ``/scenarios`` + ``/methods`` discovery payload pieces."""
        from repro.heuristics.base import available_methods

        registry = scenario_registry()
        return {
            "methods": list(available_methods()),
            "scenarios": [
                registry.info(name).as_dict() for name in registry.names()
            ],
        }

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("service is shut down", status=503)

    def close(self) -> None:
        """Drain workers and close the store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True)
        self.coalescer.close()
        self.jobs.close()


# ----------------------------------------------------------------------
def create_app(
    service: "SolverService | None" = None, **service_kwargs
) -> AsgiApp:
    """The zero-dependency ASGI application (any ASGI server hosts it).

    The built app exposes the service as ``app.service`` and wires
    ``service.close`` into ASGI lifespan shutdown.
    """
    from repro.service.routes import build_router

    if service is None:
        service = SolverService(**service_kwargs)
    app = AsgiApp(build_router(service))
    app.service = service
    app.on_shutdown.append(service.close)
    return app

