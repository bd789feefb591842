"""Concurrent-access regression tests for the facade's shared state.

One :class:`~repro.api.Solver` (and its :class:`~repro.lp.builder.
LPBuildCache`) is shared by every request thread of the service layer.
These tests hammer a single instance from many threads and assert two
things: nothing corrupts (no exceptions, consistent counters) and
results stay bitwise-identical to the serial reference — reuse must be
value-transparent under contention, not just under sequential repeats.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import PlatformSpec, SteadyStateProblem, generate_platform
from repro.api import Solver, SolverConfig
from repro.lp.builder import LPBuildCache

N_THREADS = 8
ROUNDS_PER_THREAD = 5


def _problems() -> "list[SteadyStateProblem]":
    spec = PlatformSpec(
        n_clusters=4, connectivity=0.6, heterogeneity=0.4,
        mean_g=250.0, mean_bw=30.0, mean_max_connect=10.0,
        speed_heterogeneity=0.4,
    )
    return [
        SteadyStateProblem(generate_platform(spec, rng=seed),
                           objective=objective)
        for seed in (11, 22)
        for objective in ("maxmin", "sum")
    ]


def _signature(report):
    allocation = report.allocation
    return (
        report.value,
        report.n_lp_solves,
        None if allocation is None else allocation.alpha.tobytes(),
        None if allocation is None else allocation.beta.tobytes(),
    )


@pytest.mark.parametrize("method", ["greedy", "lprg"])
def test_one_solver_hammered_from_many_threads(method):
    problems = _problems()
    reference = [
        Solver(SolverConfig(method=method)).solve(p, rng=i)
        for i, p in enumerate(problems)
    ]
    expected = [_signature(r) for r in reference]

    shared = Solver(SolverConfig(method=method))

    def hammer(thread_index: int):
        out = []
        for round_index in range(ROUNDS_PER_THREAD):
            i = (thread_index + round_index) % len(problems)
            out.append((i, _signature(shared.solve(problems[i], rng=i))))
        return out

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = [
            item
            for chunk in pool.map(hammer, range(N_THREADS))
            for item in chunk
        ]

    for i, signature in results:
        assert signature == expected[i], (
            "concurrent solve diverged from the serial reference"
        )
    assert shared.state.n_solves == N_THREADS * ROUNDS_PER_THREAD


def test_concurrent_solve_many_batches_share_one_solver():
    problems = _problems()
    shared = Solver(SolverConfig(method="greedy"))
    expected = [
        _signature(r) for r in shared.solve_many(problems, rng=99)
    ]

    def batch(_):
        return [_signature(r) for r in shared.solve_many(problems, rng=99)]

    with ThreadPoolExecutor(max_workers=6) as pool:
        for signatures in pool.map(batch, range(12)):
            assert signatures == expected


def test_lp_build_cache_counters_consistent_under_contention():
    problems = _problems()
    cache = LPBuildCache()
    solver = Solver(SolverConfig(method="lprg"))
    solver.state.lp_cache = cache

    def run(i):
        solver.solve(problems[i % len(problems)], rng=i % len(problems))

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(run, range(N_THREADS * 4)))

    stats = cache.stats()
    # Every build is either cold or a hit; totals must add up exactly
    # (a torn counter under a race would break this invariant).
    assert stats["cold_builds"] + stats["build_hits"] > 0
    assert stats["cold_builds"] >= stats["templates"] > 0


def test_index_adoption_threadsafe_for_equal_platforms():
    """Equal-but-distinct platform objects solved concurrently share one
    LP template (and with it one variable index)."""
    spec = PlatformSpec(
        n_clusters=5, connectivity=0.7, heterogeneity=0.3,
        mean_g=250.0, mean_bw=30.0, mean_max_connect=10.0,
    )
    copies = [
        SteadyStateProblem(generate_platform(spec, rng=7), objective="maxmin")
        for _ in range(N_THREADS)
    ]
    solver = Solver(SolverConfig(method="lprg"))
    reference = _signature(
        Solver(SolverConfig(method="lprg")).solve(copies[0], rng=0)
    )

    def run(problem):
        return _signature(solver.solve(problem, rng=0))

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        for signature in pool.map(run, copies):
            assert signature == reference
    assert solver.state.lp_cache.stats()["templates"] == 1
