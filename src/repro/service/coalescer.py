"""Batching of compatible concurrent solve requests.

Under a request storm the service sees many independent ``POST /solve``
bodies that all target the same platform fingerprint and config — i.e.
the same pooled solver. Solving them one call at a time would still be
warm, but batching them through one
:meth:`~repro.api.Solver.solve_many` call amortises the per-call
facade overhead and keeps one code path hot.

The enabling contract lives in the facade (and is pinned by tests):
``solve_many(problems, seeds=[s0, s1, ...])`` solves instance ``i``
**bitwise-exactly** as ``solve(problems[i], rng=si)`` would. Batching
is therefore invisible in the responses — any interleaving of requests
produces byte-identical reports to unbatched execution, which is the
Hypothesis property in ``tests/test_service_coalescer.py``.

Mechanics (leader/follower, no timer): a request for an idle key
*leads* — it hands the key to a worker of the coalescer's small thread
pool, which runs a ``solve_many`` batch at once. Requests that arrive
while the key's batch runs *follow*: they queue, and as soon as the
running batch ends the same worker claims up to ``max_batch`` of them
as the next batch, until the queue is empty and the key is idle again.
So one key has at most one batch running, batching happens exactly
when requests contend, and a lone request never waits for company.
``submit`` never blocks: each caller holds a
:class:`concurrent.futures.Future` resolved with its own report.

Batch counters are :class:`repro.obs.metrics.Counter` instances (plus a
batch-size :class:`~repro.obs.metrics.Histogram`) registered in the
owning service's metrics registry, so they are cumulative, race-free
under concurrent workers, and exported by ``GET /metrics``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Hashable

from repro.api.solver import Solver
from repro.obs.metrics import MetricsRegistry


class RequestCoalescer:
    """Batch same-key solve requests into single ``solve_many`` calls."""

    def __init__(
        self,
        max_batch: int = 64,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        #: key -> requests waiting for its next batch; a key is present
        #: from its leader's submit until its last batch ends
        self._queues: "dict[Hashable, list]" = {}
        self._lock = threading.Lock()
        self._workers = ThreadPoolExecutor(thread_name_prefix="repro-coalesce")
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self.batches = registry.counter(
            "repro_coalesce_batches_total",
            help="solve_many batches dispatched by the coalescer.",
        )
        self.coalesced_requests = registry.counter(
            "repro_coalesce_requests_total",
            help="Requests that travelled inside a coalesced batch.",
        )
        self.batch_size = registry.histogram(
            "repro_coalesce_batch_size",
            help="Requests per dispatched batch.",
            lo=0.0,
            hi=float(self.max_batch + 1),
            n_bins=min(64, self.max_batch + 1),
        )
        self._largest_batch = registry.gauge(
            "repro_coalesce_largest_batch",
            help="Largest batch dispatched so far.",
        )

    # ------------------------------------------------------------------
    def submit(
        self,
        key: Hashable,
        solver: Solver,
        problem,
        seed: "int | None" = None,
    ) -> "Future":
        """Enqueue one solve; the future resolves to its SolveReport.

        ``key`` must imply the solver: all requests sharing a key are
        executed on the leader's ``solver`` — the pool's
        ``(fingerprint, config-hash)`` key has exactly that property.
        """
        future: "Future" = Future()
        with self._lock:
            queue = self._queues.get(key)
            leads = queue is None
            if leads:
                queue = self._queues[key] = []
            queue.append((problem, seed, future))
        if leads:
            self._workers.submit(self._drain, key, solver)
        return future

    # ------------------------------------------------------------------
    def _drain(self, key: Hashable, solver: Solver) -> None:
        """Run the key's batches back to back until none wait.

        The key is released *before* the last batch's futures resolve,
        so a caller holding its report never sees its key still pending.
        """
        more = True
        while more:
            with self._lock:
                queue = self._queues[key]
                batch = queue[: self.max_batch]
                del queue[: self.max_batch]
            try:
                reports = solver.solve_many(
                    [problem for problem, _, _ in batch],
                    seeds=[seed for _, seed, _ in batch],
                )
                error = None
            except Exception as exc:  # one bad batch fails its callers
                error = exc
            with self._lock:
                more = bool(queue)
                if not more:
                    del self._queues[key]
            if error is not None:
                for _, _, future in batch:
                    future.set_exception(error)
                continue
            self.batches.inc()
            self.coalesced_requests.inc(len(batch))
            self.batch_size.observe(len(batch))
            self._largest_batch.set_max(len(batch))
            for (_, _, future), report in zip(batch, reports):
                future.set_result(report)

    def close(self) -> None:
        """Stop the workers once every queued batch has run."""
        self._workers.shutdown(wait=True)

    # ------------------------------------------------------------------
    @property
    def largest_batch(self) -> int:
        return int(self._largest_batch.value)

    def stats(self) -> dict:
        with self._lock:
            pending = len(self._queues)
        return {
            "batches": self.batches.value,
            "coalesced_requests": self.coalesced_requests.value,
            "largest_batch": self.largest_batch,
            "pending_buckets": pending,
        }
