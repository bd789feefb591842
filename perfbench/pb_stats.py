"""Per-op latency summaries: the median and the tail rule.

Only the standard library, so the tests run it without the program
under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: the tail percentile. Higher ones measured the host, not the program:
#: CPU steal on a shared VM arrives in scheduler slices of a few ms, so
#: it lengthens some ~20 ms service requests by half and leaves the
#: rest alone. Over 23 service-solve runs taken at calm and at busy
#: times, the inter-quartile spread of ten-run subsets had a median of
#: 33% of the median at p99, 25% at p95, 17% at p90 and 12% at p75 (10%
#: for p50), against a bound of 25%
TAIL_PCT = 75.0

#: the tail needs at least this many samples beyond it
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float]) -> "tuple[float, float] | None":
    """``(TAIL_PCT, value)`` at the nearest rank of :data:`TAIL_PCT`, or
    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it:
    the tail would then rest on a handful of ops and sit near the median.
    """
    n = len(values)
    rank = max(1, math.ceil(TAIL_PCT / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return TAIL_PCT, float(sorted(values)[rank - 1])


def latency_summary(latencies_s: Sequence[float]) -> dict:
    """Median and tail of per-op latencies, in milliseconds."""
    out = {"n": len(latencies_s), "p50_ms": 1e3 * statistics.median(latencies_s)}
    tail = tail_percentile(latencies_s)
    if tail is not None:
        out["tail_pct"] = tail[0]
        out["tail_ms"] = 1e3 * tail[1]
    return out
