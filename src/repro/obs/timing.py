"""Monotonic timing helpers — the single timing utility of the package.

Everything here is ``time.perf_counter``-based: these values measure
elapsed durations only and must never leak into result state dicts or
seeds (see the determinism-invisibility contract in
``docs/architecture.md``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Accumulating monotonic timer.

    Example
    -------
    >>> t = Timer()
    >>> with t.measure():
    ...     sum(range(1000))
    499500
    >>> t.total >= 0.0
    True
    """

    total: float = 0.0
    count: int = 0
    laps: list = field(default_factory=list)

    @contextmanager
    def measure(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            lap = time.perf_counter() - start
            self.total += lap
            self.count += 1
            self.laps.append(lap)

    @property
    def mean(self) -> float:
        """Mean lap duration in seconds (0.0 before any lap)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self.laps.clear()


@contextmanager
def timed(sink: "dict[str, float]", key: str):
    """Record the duration of a block into ``sink[key]`` (accumulating)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        sink[key] = sink.get(key, 0.0) + (time.perf_counter() - start)
