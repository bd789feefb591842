"""Warm :class:`~repro.api.Solver` instances keyed by what they cache.

The whole point of a resident service is that the second request from a
platform is cheaper than the first: the facade's
:class:`~repro.api.solver.SolverState` holds the LP template cache,
keyed by platform fingerprint (each template carries its variable
index), and the memo of HiGHS optima beside it.
The pool keeps one warm ``Solver`` per

    (platform fingerprint, config fingerprint)

pair — the platform fingerprint scopes *what* is cached, the
:func:`~repro.api.config.config_fingerprint` scopes *how it solves*
(two configs may produce different results, so they must never share a
report-stamping solver). Eviction is LRU with a bounded size; each
``Solver``'s :class:`~repro.lp.builder.LPBuildCache` additionally
bounds its templates and memoized optima, so total memory is capped on
both axes.

Solvers handed out are shared across threads — safe because
``SolverState`` and :class:`~repro.lp.builder.LPBuildCache` lock their
mutations and reuse is value-transparent (pristine template copies,
never shared solve state).

Hit/miss/eviction counters are :class:`repro.obs.metrics.Counter`
instances registered in the owning service's metrics registry (or a
private one for standalone pools): cumulative, thread-safe under their
own locks, and served verbatim by both ``GET /stats`` and the
Prometheus ``GET /metrics`` endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.api.config import SolverConfig, config_fingerprint
from repro.api.solver import Solver
from repro.obs.metrics import MetricsRegistry


class SolverPool:
    """Bounded LRU pool of warm solvers (thread-safe)."""

    def __init__(
        self,
        max_solvers: int = 32,
        solver_factory: "Callable[[SolverConfig], Solver]" = Solver,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_solvers < 1:
            raise ValueError(f"max_solvers must be >= 1, got {max_solvers}")
        self.max_solvers = int(max_solvers)
        self._factory = solver_factory
        self._solvers: "OrderedDict[tuple[str, str], Solver]" = OrderedDict()
        self._lock = threading.RLock()
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self.pool_hits = registry.counter(
            "repro_pool_hits_total",
            help="Requests served by an already-warm pooled solver.",
        )
        self.pool_misses = registry.counter(
            "repro_pool_misses_total",
            help="Requests that had to build a cold solver.",
        )
        self.evictions = registry.counter(
            "repro_pool_evictions_total",
            help="Warm solvers evicted by the LRU bound.",
        )
        self._size_gauge = registry.gauge(
            "repro_pool_size", help="Resident warm solvers."
        )

    # ------------------------------------------------------------------
    def key_for(self, fingerprint: str, config: SolverConfig) -> "tuple[str, str]":
        return (str(fingerprint), config_fingerprint(config))

    def solver_for(self, fingerprint: str, config: SolverConfig) -> Solver:
        """The warm solver for this platform/config pair (made if cold).

        ``fingerprint`` is any stable identity of the workload's cache
        affinity — :func:`~repro.platform.serialization.
        platform_fingerprint` for explicit-platform solves, a scenario
        key for registry-built ones.
        """
        key = self.key_for(fingerprint, config)
        with self._lock:
            solver = self._solvers.get(key)
            if solver is not None:
                self._solvers.move_to_end(key)
                self.pool_hits.inc()
                return solver
            self.pool_misses.inc()
            solver = self._factory(config)
            self._solvers[key] = solver
            while len(self._solvers) > self.max_solvers:
                self._solvers.popitem(last=False)
                self.evictions.inc()
            self._size_gauge.set(len(self._solvers))
            return solver

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._solvers)

    def stats(self) -> dict:
        """Pool counters plus the pooled solvers' cache counters, summed.

        The summed ``build_hits``/``cold_builds`` pair is the service's
        warm-reuse story in two numbers (gated by
        ``benchmarks/bench_service.py``).
        """
        with self._lock:
            solvers = list(self._solvers.values())
            size = len(self._solvers)
        out = {
            "size": size,
            "max_solvers": self.max_solvers,
            "pool_hits": self.pool_hits.value,
            "pool_misses": self.pool_misses.value,
            "evictions": self.evictions.value,
        }
        aggregate: "dict[str, int]" = {}
        for solver in solvers:
            for key, value in solver.state.stats().items():
                aggregate[key] = aggregate.get(key, 0) + int(value)
        out["solver_totals"] = aggregate
        return out
