"""Telemetry subsystem: overhead gates + result invisibility.

PR 10 threads structured tracing and mergeable metrics through the
solver, the campaign engine, the service and the online scheduler. The
contract this benchmark gates:

* **off means off** — with telemetry disabled (the default), the only
  cost on a hot path is an ambient-tracer lookup plus an ``enabled``
  flag check. Measured directly (the check micro-timed, multiplied by
  the checks a warm LPRR solve performs), that cost must stay under
  **1%** of the warm solve time;
* **on stays cheap** — a fully instrumented warm LPRR chain (tracing
  *and* metrics) must run within **5%** of the disabled chain. The two
  chains run alternately in one process from the same warm state
  (disabled, enabled, disabled, enabled, ...), each timed in process
  CPU time, and the gate reads the median of the per-pair ratios: host
  speed drift between the members of a pair is small, while drift
  between two separate blocks of repeats is what a block design
  measures;
* **telemetry is invisible to results** — solve reports and sweep
  accumulator states are bitwise-identical with telemetry on, off, or
  mixed; span and metric state never reaches a result dict.

Results land in ``BENCH_telemetry.json`` (repo root) so the overhead
trajectory is machine-trackable from this PR on.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import Solver, SolverConfig, TelemetryOptions, build_scenario
from repro.experiments.config import sample_settings
from repro.obs.trace import current_tracer

from benchmarks.conftest import banner, full_scale

#: gate: no-op guard cost as a fraction of the warm disabled solve time
MAX_DISABLED_OVERHEAD = 0.01
#: gate: fully-enabled chain vs disabled chain (median paired ratio)
MAX_ENABLED_OVERHEAD = 0.05

_OUT = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def _chain_cpu_seconds(solver: Solver, problem, n_solves: int):
    """Process CPU time of ``n_solves`` warm solves, and the last value."""
    start = time.process_time()
    for seed in range(n_solves):
        report = solver.solve(problem, rng=seed)
    elapsed = time.process_time() - start
    if solver.tracer is not None:
        solver.tracer.drain()  # keep retained span trees bounded (untimed)
    return elapsed, report.value


def _noop_check_seconds(samples: int = 200_000) -> float:
    """Per-call cost of the disabled-path guard: lookup + flag check."""
    start = time.perf_counter()
    for _ in range(samples):
        if current_tracer().enabled:  # pragma: no cover - always False here
            raise AssertionError("tracer unexpectedly enabled")
    return (time.perf_counter() - start) / samples


def _span_count(problem) -> int:
    """How many spans one warm LPRR solve emits (== guards it crosses)."""
    telemetry = TelemetryOptions(trace=True)
    solver = Solver(SolverConfig(method="lprr", telemetry=telemetry))
    solver.solve(problem, rng=0)  # cold warm-up
    solver.tracer.drain()
    solver.solve(problem, rng=1)
    (root,) = solver.tracer.drain()

    def count(tree) -> int:
        return 1 + sum(count(c) for c in tree.get("children", ()))

    return count(root)


def _scrubbed_sweep_state(telemetry) -> str:
    settings = sample_settings(1, rng=0, k_values=[3])
    accumulator = Solver(
        SolverConfig(stream=True, telemetry=telemetry)
    ).sweep(
        settings, methods=("lprr",), objectives=("maxmin",),
        n_platforms=2, rng=7,
    )
    state = accumulator.state_dict()
    state.pop("runtime_groups")  # measured wall time: differs run-to-run
    return json.dumps(state, sort_keys=True)


def _measure() -> dict:
    n_solves = 40 if full_scale() else 20
    pairs = 15 if full_scale() else 11
    problem = build_scenario("das2", rng=np.random.default_rng(3))

    plain = Solver(SolverConfig(method="lprr"))
    plain.solve(problem, rng=0)  # warm the LP template cache
    traced = Solver(
        SolverConfig(
            method="lprr",
            telemetry=TelemetryOptions(trace=True, metrics=True),
        )
    )
    traced.solve(problem, rng=0)
    traced.tracer.drain()

    disabled, enabled = [], []
    for _ in range(pairs):  # A B A B ...: each pair shares its host speed
        seconds, disabled_value = _chain_cpu_seconds(plain, problem, n_solves)
        disabled.append(seconds)
        seconds, enabled_value = _chain_cpu_seconds(traced, problem, n_solves)
        enabled.append(seconds)
    ratios = np.array(enabled) / np.array(disabled)
    disabled_seconds = float(np.median(disabled))

    per_check = _noop_check_seconds()
    checks_per_solve = _span_count(problem)
    disabled_overhead = (
        per_check * checks_per_solve * n_solves / disabled_seconds
    )

    return {
        "n_solves": n_solves,
        "pairs": pairs,
        "timer": "process CPU time, disabled/enabled chains alternating",
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": float(np.median(enabled)),
        "enabled_overhead": float(np.median(ratios)) - 1.0,
        "paired_overheads": sorted(float(r) - 1.0 for r in ratios),
        "noop_check_seconds": per_check,
        "checks_per_solve": checks_per_solve,
        "disabled_overhead": disabled_overhead,
        "values_equal": disabled_value == enabled_value,
        "sweep_state_equal": (
            _scrubbed_sweep_state(None)
            == _scrubbed_sweep_state(TelemetryOptions(trace=True))
            == _scrubbed_sweep_state(
                TelemetryOptions(trace=True, metrics=True)
            )
        ),
    }


def test_telemetry_overhead(benchmark):
    data = benchmark.pedantic(_measure, rounds=1, iterations=1)

    banner(
        "PR 10 / telemetry: zero-overhead off, bounded overhead on",
        "observability must never change a result bit nor slow the warm "
        "path measurably",
    )
    spread = data["paired_overheads"]
    print(f"warm LPRR chain ({data['n_solves']} solves, medians of "
          f"{data['pairs']} alternating pairs, process CPU time):")
    print(f"  telemetry off     {1e3 * data['disabled_seconds']:>9.2f} ms")
    print(f"  trace + metrics   {1e3 * data['enabled_seconds']:>9.2f} ms")
    print(f"  paired overhead   median {data['enabled_overhead']:+.1%} "
          f"(pairs {spread[0]:+.1%} .. {spread[-1]:+.1%}), gate < "
          f"{MAX_ENABLED_OVERHEAD:.0%}")
    print(f"disabled-path guard: {1e9 * data['noop_check_seconds']:.0f} ns "
          f"x {data['checks_per_solve']} spans/solve = "
          f"{data['disabled_overhead']:.3%} of the warm solve "
          f"(gate < {MAX_DISABLED_OVERHEAD:.0%})")
    print(f"solve values bitwise-equal on/off: {data['values_equal']}")
    print(f"sweep states bitwise-equal on/off/mixed: "
          f"{data['sweep_state_equal']}")

    payload = {
        "bench": "telemetry",
        "full_scale": full_scale(),
        "max_disabled_overhead_gate": MAX_DISABLED_OVERHEAD,
        "max_enabled_overhead_gate": MAX_ENABLED_OVERHEAD,
        "results": data,
    }
    _OUT.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"wrote {_OUT.name}")

    # Regression gates.
    assert data["values_equal"], "telemetry changed a solve result"
    assert data["sweep_state_equal"], "telemetry changed a sweep state"
    assert data["disabled_overhead"] < MAX_DISABLED_OVERHEAD, (
        f"disabled-path guards cost {data['disabled_overhead']:.2%} "
        f"of a warm solve (gate {MAX_DISABLED_OVERHEAD:.0%})"
    )
    assert data["enabled_overhead"] < MAX_ENABLED_OVERHEAD, (
        f"enabled telemetry slowed the warm chain by "
        f"{data['enabled_overhead']:.1%} in the median of "
        f"{data['pairs']} pairs (gate {MAX_ENABLED_OVERHEAD:.0%})"
    )
