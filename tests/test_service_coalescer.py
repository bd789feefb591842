"""Request-coalescing correctness: batching must be invisible.

The coalescer's whole contract is that N concurrent solve requests
answered through one ``Solver.solve_many(problems, seeds=...)`` batch are
**bitwise-identical** to answering each alone. The Hypothesis property
drives random request mixes (seeds, problems, arrival interleavings,
batch sizes) through a shared coalescer and compares every response
against its serial ``Solver.solve(problem, rng=seed)`` reference.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlatformSpec, SteadyStateProblem, generate_platform
from repro.api import Solver, SolverConfig
from repro.service import RequestCoalescer

CONFIG = SolverConfig(method="greedy")

_SPEC = PlatformSpec(
    n_clusters=4, connectivity=0.6, heterogeneity=0.4,
    mean_g=250.0, mean_bw=30.0, mean_max_connect=10.0,
    speed_heterogeneity=0.4,
)
PROBLEMS = [
    SteadyStateProblem(generate_platform(_SPEC, rng=seed), objective=obj)
    for seed, obj in ((11, "maxmin"), (11, "sum"), (22, "maxmin"))
]


def _signature(report):
    return (
        report.value,
        report.n_lp_solves,
        report.allocation.alpha.tobytes(),
        report.allocation.beta.tobytes(),
    )


def _reference(problem_index: int, seed: int):
    report = Solver(CONFIG).solve(PROBLEMS[problem_index], rng=seed)
    return _signature(report)


@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(PROBLEMS) - 1),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=12,
    ),
    stagger=st.lists(
        st.sampled_from([0.0, 0.0, 0.0005, 0.002]), min_size=12, max_size=12
    ),
    max_batch=st.sampled_from([1, 3, 64]),
)
@settings(max_examples=20, deadline=None)
def test_any_interleaving_matches_serial_reference(
    requests, stagger, max_batch
):
    coalescer = RequestCoalescer(max_batch=max_batch)
    solver = Solver(CONFIG)
    futures = []

    def submit(problem_index: int, seed: int, delay: float):
        time.sleep(delay)
        return coalescer.submit(
            "key", solver, PROBLEMS[problem_index], seed
        )

    threads = []
    results: "list" = [None] * len(requests)

    def worker(i, problem_index, seed, delay):
        future = submit(problem_index, seed, delay)
        results[i] = _signature(future.result(timeout=60))

    for i, (problem_index, seed) in enumerate(requests):
        thread = threading.Thread(
            target=worker, args=(i, problem_index, seed, stagger[i])
        )
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join(60)

    for (problem_index, seed), signature in zip(requests, results):
        assert signature == _reference(problem_index, seed), (
            "coalesced response differs from the serial solve"
        )


def test_storm_coalesces_into_few_batches():
    """A same-instant storm actually batches (and still answers right)."""
    coalescer = RequestCoalescer(max_batch=128)
    solver = Solver(CONFIG)
    n = 24
    barrier = threading.Barrier(n)
    signatures: "list" = [None] * n

    def worker(i):
        barrier.wait()
        future = coalescer.submit("key", solver, PROBLEMS[0], 7)
        signatures[i] = _signature(future.result(timeout=60))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)

    expected = _reference(0, 7)
    assert all(s == expected for s in signatures)
    stats = coalescer.stats()
    assert stats["coalesced_requests"] == n
    assert stats["batches"] < n  # real coalescing happened
    assert stats["largest_batch"] >= 2


def test_batch_matches_one_explicit_solve_many_call():
    """The storm's responses equal one hand-built solve_many batch."""
    solver = Solver(CONFIG)
    seeds = [3, 14, 15, 9, 26]
    problems = [PROBLEMS[i % len(PROBLEMS)] for i in range(len(seeds))]
    batch = Solver(CONFIG).solve_many(problems, seeds=seeds)

    coalescer = RequestCoalescer(max_batch=len(seeds))
    futures = [
        coalescer.submit("key", solver, problem, seed)
        for problem, seed in zip(problems, seeds)
    ]
    for future, report in zip(futures, batch):
        assert _signature(future.result(timeout=60)) == _signature(report)


def test_distinct_keys_never_share_a_batch():
    coalescer = RequestCoalescer(max_batch=64)
    solver_a, solver_b = Solver(CONFIG), Solver(CONFIG)
    fa = coalescer.submit("a", solver_a, PROBLEMS[0], 1)
    fb = coalescer.submit("b", solver_b, PROBLEMS[1], 2)
    assert _signature(fa.result(timeout=60)) == _reference(0, 1)
    assert _signature(fb.result(timeout=60)) == _reference(1, 2)
    assert coalescer.stats()["batches"] == 2


def test_failing_batch_propagates_to_every_caller():
    class Boom(Exception):
        pass

    class FailingSolver:
        def solve_many(self, problems, seeds=None):
            raise Boom("bad batch")

    coalescer = RequestCoalescer(max_batch=8)
    futures = [
        coalescer.submit("k", FailingSolver(), PROBLEMS[0], i)
        for i in range(3)
    ]
    for future in futures:
        with pytest.raises(Boom):
            future.result(timeout=60)


def test_constructor_validation():
    with pytest.raises(ValueError):
        RequestCoalescer(max_batch=0)


# ----------------------------------------------------------------------
# leader/follower dispatch, driven deterministically
# ----------------------------------------------------------------------
class GatedSolver:
    """Fake solver: each ``solve_many`` call announces its seeds on
    ``started``, then blocks until the test opens that call's gate."""

    def __init__(self, fail_calls=()):
        self.started: "queue.Queue[list]" = queue.Queue()
        self.n_calls = 0
        self._gates: "list[threading.Event]" = []
        self._fail_calls = set(fail_calls)
        self._lock = threading.Lock()

    def _gate(self, call: int) -> threading.Event:
        with self._lock:
            while len(self._gates) <= call:
                self._gates.append(threading.Event())
            return self._gates[call]

    def release(self, call: int) -> None:
        self._gate(call).set()

    def solve_many(self, problems, seeds=None):
        with self._lock:
            call = self.n_calls
            self.n_calls += 1
        self.started.put(list(seeds))
        assert self._gate(call).wait(timeout=30), "gate never opened"
        if call in self._fail_calls:
            raise RuntimeError(f"batch {call} failed")
        return [("report", seed) for seed in seeds]


@pytest.mark.parametrize("max_batch", [64, 2])
def test_followers_of_a_running_batch_form_the_next_batch(max_batch):
    solver = GatedSolver()
    coalescer = RequestCoalescer(max_batch=max_batch)
    leader = coalescer.submit("k", solver, PROBLEMS[0], 0)
    # batch 1 starts at once, alone: no window waits for company
    assert solver.started.get(timeout=10) == [0]

    seeds = [1, 2, 3, 4, 5]
    followers = [
        coalescer.submit("k", solver, PROBLEMS[0], seed) for seed in seeds
    ]
    assert not leader.done()
    assert not any(future.done() for future in followers)
    assert coalescer.stats()["pending_buckets"] == 1
    assert solver.started.empty()  # nothing else runs beside batch 1

    chunks = [seeds[i:i + max_batch] for i in range(0, len(seeds), max_batch)]
    for call, chunk in enumerate(chunks):
        solver.release(call)
        assert solver.started.get(timeout=10) == chunk
    solver.release(len(chunks))

    assert leader.result(timeout=10) == ("report", 0)
    assert [f.result(timeout=10) for f in followers] == [
        ("report", seed) for seed in seeds
    ]
    assert solver.started.empty() and solver.n_calls == 1 + len(chunks)
    assert coalescer.stats() == {
        "batches": 1 + len(chunks),
        "coalesced_requests": 1 + len(seeds),
        "largest_batch": max(len(chunk) for chunk in chunks),
        "pending_buckets": 0,
    }

    # the key is idle again: the next request leads a batch of its own
    solver.release(solver.n_calls)
    assert coalescer.submit("k", solver, PROBLEMS[0], 9).result(10) == (
        "report", 9
    )
    assert solver.started.get(timeout=0) == [9]


def test_a_raising_batch_fails_only_its_own_callers():
    solver = GatedSolver(fail_calls={1})
    coalescer = RequestCoalescer(max_batch=2)
    leader = coalescer.submit("k", solver, PROBLEMS[0], 0)
    assert solver.started.get(timeout=10) == [0]
    followers = [
        coalescer.submit("k", solver, PROBLEMS[0], seed) for seed in (1, 2, 3)
    ]
    for call in range(3):
        solver.release(call)

    assert leader.result(timeout=10) == ("report", 0)
    for future in followers[:2]:  # batch [1, 2] raised
        with pytest.raises(RuntimeError, match="batch 1 failed"):
            future.result(timeout=10)
    assert followers[2].result(timeout=10) == ("report", 3)
    stats = coalescer.stats()
    assert stats["pending_buckets"] == 0
    assert stats["batches"] == 2 and stats["coalesced_requests"] == 2


class OverlapCheckingSolver:
    """Fast fake that records how many of its batches ever overlap."""

    def __init__(self):
        self.n_calls = 0
        self.running = 0
        self.max_running = 0
        self._lock = threading.Lock()

    def solve_many(self, problems, seeds=None):
        with self._lock:
            self.n_calls += 1
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        time.sleep(0.0002)  # let other submitters in while this batch runs
        with self._lock:
            self.running -= 1
        return [("report", seed) for seed in seeds]


def test_stress_one_running_batch_per_key_and_no_lost_request():
    n_threads, per_thread, n_keys, max_batch = 16, 25, 4, 5
    solvers = [OverlapCheckingSolver() for _ in range(n_keys)]
    coalescer = RequestCoalescer(max_batch=max_batch)

    def client(t):
        futures = []
        for i in range(per_thread):
            key, seed = (t + i) % n_keys, 1000 * t + i
            futures.append(
                (seed, coalescer.submit(key, solvers[key], PROBLEMS[0], seed))
            )
        return [(seed, future.result(timeout=30)) for seed, future in futures]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            answers = [a for batch in pool.map(client, range(n_threads))
                       for a in batch]
    finally:
        sys.setswitchinterval(interval)
        coalescer.close()

    assert len(answers) == n_threads * per_thread
    assert all(report == ("report", seed) for seed, report in answers)
    stats = coalescer.stats()
    assert stats["coalesced_requests"] == n_threads * per_thread
    assert stats["batches"] == sum(s.n_calls for s in solvers)
    assert stats["largest_batch"] <= max_batch
    assert stats["pending_buckets"] == 0
    assert all(s.max_running == 1 for s in solvers)
