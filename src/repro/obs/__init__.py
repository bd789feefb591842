"""Unified telemetry: structured tracing, mergeable metrics, logging.

``repro.obs`` is the observability subsystem — the eighth entry in the
``docs/architecture.md`` subsystem map:

* :mod:`repro.obs.trace` — ambient span-tree tracing with a
  zero-overhead no-op path and JSONL export;
* :mod:`repro.obs.metrics` — counters/gauges/histograms on the exact
  accumulator algebra, so per-worker registries merge bitwise; plus the
  Prometheus text renderer behind the service's ``GET /metrics``;
* :mod:`repro.obs.logging` — namespaced library loggers under one
  ``NullHandler``-guarded ``repro`` root;
* :mod:`repro.obs.timing` — the package's single monotonic timing
  utility (:mod:`repro.util` re-exports ``Timer`` and ``timed``);
* :mod:`repro.obs.options` — :class:`TelemetryOptions`, the
  ``SolverConfig(telemetry=...)`` knob record.

Everything here is observability *only*: span durations, metric values
and log records never feed back into seeds, accumulator state dicts or
solver results (the determinism-invisibility contract, Hypothesis-pinned
in ``tests/test_obs_invisibility.py``).
"""

from repro.obs.logging import get_logger, package_logger  # noqa: F401 (side effect: NullHandler)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.options import TelemetryOptions
from repro.obs.timing import Timer, timed
from repro.obs.trace import (
    NOOP_TRACER,
    JsonlTraceSink,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NullTracer",
    "Span",
    "TelemetryOptions",
    "Timer",
    "Tracer",
    "current_tracer",
    "get_logger",
    "render_prometheus",
    "timed",
    "use_tracer",
]
