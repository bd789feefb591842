"""Concurrent-access regression tests for the facade's shared state.

One :class:`~repro.api.Solver` (and its :class:`~repro.lp.builder.
LPBuildCache`) is shared by every request thread of the service layer.
These tests hammer a single instance from many threads and assert two
things: nothing corrupts (no exceptions, consistent counters) and
results stay bitwise-identical to the serial reference — reuse must be
value-transparent under contention, not just under sequential repeats.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.lp.builder as builder_mod
import repro.lp.scipy_backend as scipy_backend_mod
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


def _equal_copies() -> "list[SteadyStateProblem]":
    """``N_THREADS`` equal-but-distinct copies of one K=5 problem."""
    spec = PlatformSpec(
        n_clusters=5, connectivity=0.7, heterogeneity=0.3,
        mean_g=250.0, mean_bw=30.0, mean_max_connect=10.0,
    )
    return [
        SteadyStateProblem(generate_platform(spec, rng=7), objective="maxmin")
        for _ in range(N_THREADS)
    ]


def _first_solves_at_once(solver, problems):
    """Solve each problem on its own daemon thread, all released by one
    barrier under a 1 us switch interval; returns each thread's
    signature or exception. Fails if a thread is still blocked after a
    minute (a stranded waiter)."""
    barrier = threading.Barrier(len(problems))
    outcomes = [None] * len(problems)

    def run(i):
        barrier.wait()
        try:
            outcomes[i] = _signature(solver.solve(problems[i], rng=0))
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            outcomes[i] = exc

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(len(problems))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "stranded waiter"
    return outcomes


def test_concurrent_first_solves_build_and_solve_once():
    """The build cache is single-flight: eight threads solving copies of
    one platform on one fresh ``Solver`` assemble program (7) once and
    call HiGHS once, on every repeat."""
    reference = _signature(
        Solver(SolverConfig(method="lprg")).solve(_equal_copies()[0], rng=0)
    )
    for _ in range(20):
        solver = Solver(SolverConfig(method="lprg"))
        outcomes = _first_solves_at_once(solver, _equal_copies())
        assert outcomes == [reference] * N_THREADS
        stats = solver.state.lp_cache.stats()
        assert stats["cold_builds"] == 1
        assert stats["build_hits"] == N_THREADS - 1
        assert stats["solution_hits"] == N_THREADS - 1


@pytest.mark.parametrize("stage", ["build", "highs"])
def test_failed_first_producer_strands_no_waiter(monkeypatch, stage):
    """When the thread producing a template (or a HiGHS optimum) fails,
    its waiters wake, nothing is memoized, and one of them produces the
    entry for the rest."""
    reference = _signature(
        Solver(SolverConfig(method="lprg")).solve(_equal_copies()[0], rng=0)
    )
    owner, name = (
        (builder_mod, "_assemble") if stage == "build"
        else (scipy_backend_mod, "_highs")
    )
    produce = getattr(owner, name)
    calls = []
    lock = threading.Lock()

    def fail_first(*args):
        with lock:
            calls.append(threading.get_ident())
            first = len(calls) == 1
        if first:
            time.sleep(0.1)  # let the other threads queue up behind it
            raise RuntimeError("injected first-producer failure")
        return produce(*args)

    monkeypatch.setattr(owner, name, fail_first)
    solver = Solver(SolverConfig(method="lprg"))
    outcomes = _first_solves_at_once(solver, _equal_copies())
    failed = [o for o in outcomes if isinstance(o, Exception)]
    assert len(failed) == 1 and "injected" in str(failed[0])
    assert [o for o in outcomes if o is not failed[0]] == (
        [reference] * (N_THREADS - 1)
    )
    assert len(calls) == 2  # the failed producer and its one successor
    stats = solver.state.lp_cache.stats()
    assert stats["solution_hits"] == N_THREADS - 2
    if stage == "build":
        assert stats["cold_builds"] == 1
        assert stats["build_hits"] == N_THREADS - 2
