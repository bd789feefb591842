"""Solver facade cross-call reuse: fresh-per-call vs one kept Solver.

The facade's pitch is that a kept :class:`repro.api.Solver` warm-starts
repeated solves of related instances: LP templates (COO assembly and
the variable index) are cached across calls keyed by platform
fingerprint, beside a memo of HiGHS optima keyed by instance content.
This benchmark is the regression gate for that subsystem, on the
ROADMAP-shaped workload — a 50-instance
same-platform batch (an LPRR restart campaign: same problem, 50 seeds,
keep the best rounding):

* results must be **bitwise-identical** with and without reuse (the
  cache is value-transparent by construction);
* the reused solver must perform **>= 30% fewer cold LP builds** than
  fresh per-call construction (it does ~98% fewer: 1 vs 50);
* wall-clock is recorded for the trajectory (the build is a small slice
  of an LPRR solve, so the time win is real but modest; the gate is the
  deterministic build count).

Results land in ``BENCH_api_reuse.json`` (repo root).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import Solver, SolverConfig, build_scenario

from benchmarks.conftest import banner, full_scale

#: minimum reduction in cold LP builds the kept solver must deliver
MIN_BUILD_REDUCTION = 0.30

_OUT = Path(__file__).resolve().parents[1] / "BENCH_api_reuse.json"


def _signature(report) -> tuple:
    """Hashable bitwise signature of one solve's deterministic output."""
    return (
        report.value,
        report.n_lp_solves,
        report.allocation.alpha.tobytes(),
        report.allocation.beta.tobytes(),
    )


def _campaign(solver_for_call, problem, seeds) -> tuple[list, float, int]:
    """Run the restart campaign; returns (signatures, seconds, cold builds)."""
    solvers = []
    signatures = []
    start = time.perf_counter()
    for seed in seeds:
        solver = solver_for_call()
        solvers.append(solver)
        signatures.append(_signature(solver.solve(problem, rng=int(seed))))
    elapsed = time.perf_counter() - start
    cold_builds = sum(s.state.lp_cache.cold_builds for s in set(solvers))
    return signatures, elapsed, cold_builds


def test_api_reuse_gate():
    n_instances = 200 if full_scale() else 50
    seeds = range(n_instances)
    problem = build_scenario("table1-small", objective="maxmin", rng=42)
    config = SolverConfig(method="lprr", lp_backend="session")

    banner(
        "API reuse: kept Solver vs fresh per-call construction",
        "facade claim: cross-call state reuse, bitwise-transparent",
    )

    # Fresh per-call: a new Solver (cold state) for every restart.
    fresh_sig, fresh_time, fresh_builds = _campaign(
        lambda: Solver(config), problem, seeds
    )

    # Reused: one Solver carries its warm state through the campaign.
    kept = Solver(config)
    reused_sig, reused_time, reused_builds = _campaign(
        lambda: kept, problem, seeds
    )

    assert reused_sig == fresh_sig, (
        "cross-call reuse changed solver output — the LP cache must be "
        "bitwise-transparent"
    )

    build_reduction = 1.0 - reused_builds / fresh_builds
    speedup = fresh_time / reused_time if reused_time > 0 else float("inf")
    stats = kept.state.stats()

    print(f"instances:        {n_instances} (same platform, seeds 0..{n_instances - 1})")
    print(f"cold LP builds:   fresh {fresh_builds}  reused {reused_builds} "
          f"({100 * build_reduction:.1f}% fewer)")
    print(f"template hits:    {stats['build_hits']}")
    print(f"wall-clock:       fresh {fresh_time:.3f}s  reused {reused_time:.3f}s "
          f"({speedup:.2f}x)")
    print(f"bitwise identical results: yes ({len(set(fresh_sig))} distinct roundings)")

    assert reused_builds < fresh_builds
    assert build_reduction >= MIN_BUILD_REDUCTION, (
        f"expected >= {MIN_BUILD_REDUCTION:.0%} fewer cold LP builds, "
        f"got {build_reduction:.1%}"
    )

    _OUT.write_text(
        json.dumps(
            {
                "workload": "lprr restart campaign, same platform",
                "n_instances": n_instances,
                "fresh": {"cold_builds": fresh_builds, "seconds": fresh_time},
                "reused": {
                    "cold_builds": reused_builds,
                    "seconds": reused_time,
                    "state": stats,
                },
                "build_reduction": build_reduction,
                "speedup": speedup,
                "bitwise_identical": True,
                "gate_min_build_reduction": MIN_BUILD_REDUCTION,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\nwrote {_OUT.name}")


def test_template_reuse_across_equal_platforms():
    """Equal-but-distinct platform objects share one LP template (and
    its variable index) and one memoized HiGHS optimum."""
    from repro.platform import load_platform, platform_fingerprint, save_platform
    import tempfile

    problem = build_scenario("das2")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        save_platform(problem.platform, path)
        clones = [load_platform(path) for _ in range(3)]

    assert len({platform_fingerprint(c) for c in clones}) == 1
    solver = Solver(SolverConfig(method="lprg"))
    from repro import SteadyStateProblem

    values = {
        solver.solve(SteadyStateProblem(c, problem.payoffs)).value.hex()
        for c in clones
    }
    assert len(values) == 1
    # Only the first clone assembles program (7) and calls HiGHS; the
    # other two are a template hit and a memo hit each.
    stats = solver.state.stats()
    assert stats["cold_builds"] == 1
    assert stats["build_hits"] == len(clones) - 1
    assert stats["solution_hits"] == len(clones) - 1
