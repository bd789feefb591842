"""Process-pool campaign engine: deterministic fan-out of pure tasks.

A *campaign* is an ordered list of independent tasks, each handled by a
picklable worker function. The engine runs them either inline
(``jobs=1``, the exact serial semantics every result is defined against)
or on a :class:`~concurrent.futures.ProcessPoolExecutor`, and in both
cases returns results **in task order** — parallelism is an execution
detail, never a semantic one. Determinism therefore reduces to the
tasks themselves being pure functions of their payload (sweep tasks
carry their own :class:`numpy.random.SeedSequence`, see
:mod:`repro.parallel.sweep`).

Fault model
-----------
Without a :class:`RetryPolicy` (the default, and the historical
behavior):

* A task that *raises* is reported as a :class:`~repro.util.errors.
  SolverError` carrying the worker-side traceback; every task whose
  result reached the engine before the failure is recorded to the
  checkpoint first, so a re-run with ``resume=True`` repeats only the
  failed task and any work still in flight when the campaign aborted.
* A worker process that *dies* (segfault, ``os._exit``, OOM kill)
  breaks the pool. The engine rebuilds the pool and retries the
  affected tasks one-by-one up to ``max_task_retries`` times each, so a
  transient crash costs one retry while a task that reliably kills its
  worker surfaces as a :class:`SolverError` naming the task.

With a :class:`RetryPolicy` the engine becomes supervised:

* failures are *classified* (see :func:`repro.util.faults.
  is_transient_exception`): transient infrastructure errors
  (``OSError``/``TimeoutError``/injected transients) are retried with
  exponential backoff up to ``max_attempts`` total attempts;
* deterministic task errors are **quarantined** instead of crashing
  the campaign (when ``quarantine=True``): the engine completes every
  other task — all of them recorded/streamed as usual — and then
  raises a structured :class:`QuarantineError` listing the failures;
* a ``task_timeout`` bounds each pool chunk's wall time; an expired
  chunk has its workers killed and is retried like a crash.

Retries are bitwise-safe because tasks are pure: re-running a task
with the same payload (same embedded seed) reproduces its result
exactly, so neither retry count nor scheduling order can move a bit of
campaign output.

Deterministic faults can be *injected* for testing through a
:class:`repro.util.faults.FaultPlan` — passed explicitly or ambient
via the ``REPRO_FAULT_PLAN`` environment variable (which inherited
environments carry into pool workers).
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.util.errors import SolverError
from repro.util.faults import FaultPlan, is_transient_exception

#: chunks per worker the default chunking aims for; >1 smooths load
#: imbalance between cheap and expensive tasks.
_CHUNKS_PER_JOB = 4


def default_chunk_size(n_tasks: int, jobs: int) -> int:
    """Chunk size balancing IPC overhead against load imbalance."""
    if n_tasks <= 0 or jobs <= 1:
        return max(1, n_tasks)
    return max(1, -(-n_tasks // (jobs * _CHUNKS_PER_JOB)))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and error classification.

    Parameters
    ----------
    max_attempts:
        Total tries per task (first run + retries); transient failures
        beyond this fail the campaign.
    backoff / backoff_factor / max_backoff:
        Sleep before retry ``k`` (1-based) is
        ``min(backoff * backoff_factor**(k-1), max_backoff)`` seconds.
        ``backoff=0`` disables sleeping (deterministic tests).
    task_timeout:
        Wall-clock seconds allowed per task on the pool path (a chunk
        of ``n`` tasks gets ``n * task_timeout``). Expiry kills the
        chunk's workers and counts as one failed attempt for its
        tasks. ``None`` disables; the ``jobs=1`` inline path cannot
        preempt and ignores it.
    quarantine:
        When ``True``, deterministic task errors do not abort the
        campaign: the engine finishes every other task and raises one
        :class:`QuarantineError` carrying the structured failures. When
        ``False``, the first deterministic error aborts (legacy shape).
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    task_timeout: "float | None" = None
    quarantine: bool = True

    def __post_init__(self):
        if not isinstance(self.quarantine, bool):
            raise ValueError(
                f"'quarantine' must be a bool, got {self.quarantine!r}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff < 0:
            raise ValueError(
                f"max_backoff must be >= 0, got {self.max_backoff}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )

    def delay(self, failures: int) -> float:
        """Backoff before the retry following the ``failures``-th failure."""
        if self.backoff <= 0:
            return 0.0
        return min(
            self.backoff * self.backoff_factor ** max(0, failures - 1),
            self.max_backoff,
        )

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "max_backoff": self.max_backoff,
            "task_timeout": self.task_timeout,
            "quarantine": self.quarantine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        known = {
            "max_attempts", "backoff", "backoff_factor", "max_backoff",
            "task_timeout", "quarantine",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RetryPolicy field(s): {', '.join(unknown)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined task: everything needed to debug it offline."""

    task_id: str
    index: int
    error: str
    traceback: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "index": self.index,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


class QuarantineError(SolverError):
    """Deterministic task errors, reported after the campaign finished.

    Raised once at the end of a supervised run whose
    :class:`RetryPolicy` quarantines: every *other* task completed and
    was recorded/streamed, so a resume after fixing the bug re-runs
    only the quarantined tasks. ``failures`` holds the structured
    :class:`TaskFailure` records.
    """

    def __init__(self, failures: "Sequence[TaskFailure]"):
        self.failures = list(failures)
        ids = ", ".join(repr(f.task_id) for f in self.failures)
        first = self.failures[0] if self.failures else None
        detail = f"; first error: {first.error}" if first else ""
        super().__init__(
            f"{len(self.failures)} task(s) quarantined after deterministic "
            f"errors: {ids}{detail}"
        )

    def __reduce__(self):
        # default exception pickling would re-call __init__ with the
        # *message* — rebuild from the structured failures instead so
        # the error survives a process-pool hop
        return (QuarantineError, (self.failures,))

    def report(self) -> list[dict]:
        return [f.to_dict() for f in self.failures]


def _run_chunk(worker, entries, fault_plan):
    """Worker-side driver: run one chunk, trapping per-task exceptions.

    ``entries`` are ``(index, task_id, attempt, task)`` tuples. Returns
    ``(index, ("ok", result))`` or ``(index, ("err", repr, traceback,
    transient))`` tuples; exceptions are stringified because arbitrary
    exception objects (and their tracebacks) do not survive pickling,
    and classified worker-side (``transient``) while the live exception
    is still at hand.
    """
    out = []
    for index, task_id, attempt, task in entries:
        try:
            if fault_plan is not None:
                fault_plan.apply_task_faults(task_id, attempt)
            out.append((index, ("ok", worker(task))))
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            out.append((
                index,
                (
                    "err",
                    repr(exc),
                    traceback.format_exc(),
                    is_transient_exception(exc),
                ),
            ))
            break  # the engine decides this task's fate; the chunk's
            # remaining tasks are handed back unrun
    return out


class CampaignEngine:
    """Run a list of tasks through ``worker``, serially or on a pool.

    Parameters
    ----------
    worker:
        Module-level callable ``task -> result`` (must be picklable for
        ``jobs > 1``).
    jobs:
        Worker processes; ``1`` (the default) runs inline in this
        process with no pool, no pickling and no subprocess — the
        reference semantics.
    chunk_size:
        Tasks per pool submission; defaults to
        :func:`default_chunk_size`.
    max_task_retries:
        How often a task whose worker process *died* is retried before
        the campaign fails, when no ``retry_policy`` is given
        (task-raised exceptions are then never retried — they are
        deterministic).
    retry_policy:
        Optional :class:`RetryPolicy` switching the engine to
        supervised mode (transient retry + backoff, quarantine,
        task timeout). ``None`` keeps the historical fault model.
    fault_plan:
        Optional :class:`~repro.util.faults.FaultPlan` injecting
        deterministic faults; defaults to the ambient
        ``REPRO_FAULT_PLAN`` plan when unset.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        jobs: int = 1,
        chunk_size: "int | None" = None,
        max_task_retries: int = 2,
        retry_policy: "RetryPolicy | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ValueError(
                f"retry_policy must be a RetryPolicy, got {retry_policy!r}"
            )
        self.worker = worker
        self.jobs = int(jobs)
        self.chunk_size = chunk_size
        self.max_task_retries = int(max_task_retries)
        self.retry_policy = retry_policy
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        #: transient retries performed during the last ``run`` (observable
        #: so tests and benchmarks can assert recovery stayed bounded)
        self.last_retries = 0

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[Any],
        task_ids: "Sequence[str] | None" = None,
        checkpoint=None,
        progress: "Callable[[int, int], None] | None" = None,
        consumer=None,
    ) -> "list | None":
        """Execute ``tasks``; return their results in task order.

        Parameters
        ----------
        tasks:
            The task payloads, one per call to ``worker``.
        task_ids:
            Stable string ids (required with ``checkpoint``); tasks
            whose id the checkpoint already holds are *not* re-run.
        checkpoint:
            Object with a ``completed`` mapping ``task_id -> result``
            and a ``record(task_id, result)`` method (see
            :class:`repro.parallel.checkpoint.CampaignCheckpoint`).
        progress:
            Optional ``(n_done, n_total)`` callback, called after every
            finished task.
        consumer:
            Streaming mode: an object with ``add(index, result)``
            (e.g. :class:`repro.parallel.stream.StreamFold`). Every
            result — replayed from the checkpoint or freshly computed —
            is handed to it in completion order instead of being
            collected, and ``run`` returns ``None``: the engine then
            holds O(in-flight) results, never O(tasks). Checkpoint
            replays are delivered first, in task order. If the consumer
            exposes ``buffered_tasks()`` (results it is holding out of
            order), the pool stops submitting new chunks while that
            count exceeds a few chunks' worth — so one pathologically
            slow task cannot make the reorder buffer grow O(tasks).
        """
        tasks = list(tasks)
        if task_ids is None:
            if checkpoint is not None:
                raise ValueError("checkpointing requires task_ids")
            task_ids = [str(i) for i in range(len(tasks))]
        else:
            task_ids = [str(t) for t in task_ids]
            if len(task_ids) != len(tasks):
                raise ValueError(
                    f"{len(tasks)} tasks but {len(task_ids)} task_ids"
                )
            if len(set(task_ids)) != len(task_ids):
                raise ValueError("task_ids must be unique")

        results: "list | None" = None if consumer is not None else (
            [None] * len(tasks)
        )
        done = 0
        pending: list[int] = []
        completed = checkpoint.completed if checkpoint is not None else {}
        for i, tid in enumerate(task_ids):
            if tid in completed:
                if consumer is not None:
                    consumer.add(i, completed[tid])
                else:
                    results[i] = completed[tid]
                done += 1
            else:
                pending.append(i)
        total = len(tasks)
        self.last_retries = 0
        if progress is not None and done:
            progress(done, total)

        def finish(index: int, result) -> None:
            nonlocal done
            if checkpoint is not None:
                checkpoint.record(task_ids[index], result)
            if consumer is not None:
                consumer.add(index, result)
            else:
                results[index] = result
            done += 1
            if progress is not None:
                progress(done, total)

        if self.jobs == 1 or len(pending) <= 1:
            self._run_serial(tasks, task_ids, pending, finish)
            return results

        self._run_pool(tasks, task_ids, pending, finish, consumer)
        return results

    # ------------------------------------------------------------------
    def _run_serial(self, tasks, task_ids, pending, finish) -> None:
        """The inline reference path, with optional supervised retry."""
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        policy = self.retry_policy
        quarantined: list[TaskFailure] = []
        for i in pending:
            failures = 0
            while True:
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply_task_faults(
                            task_ids[i], failures + 1
                        )
                    if tracer.enabled:
                        with tracer.span(
                            "task", task_id=str(task_ids[i]), index=i
                        ) as span:
                            result = self.worker(tasks[i])
                            if failures:
                                span.set(attempts=failures + 1)
                    else:
                        result = self.worker(tasks[i])
                except Exception as exc:
                    failures += 1
                    transient = is_transient_exception(exc)
                    if (
                        policy is not None
                        and transient
                        and failures < policy.max_attempts
                    ):
                        self.last_retries += 1
                        delay = policy.delay(failures)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    if (
                        policy is not None
                        and policy.quarantine
                        and not transient
                    ):
                        quarantined.append(TaskFailure(
                            task_id=task_ids[i],
                            index=i,
                            error=repr(exc),
                            traceback=traceback.format_exc(),
                            attempts=failures,
                        ))
                        break  # complete the rest of the campaign
                    attempts_note = (
                        f" after {failures} attempts" if failures > 1 else ""
                    )
                    raise SolverError(
                        f"campaign task {task_ids[i]!r} failed"
                        f"{attempts_note}: {exc!r}"
                    ) from exc
                else:
                    finish(i, result)
                    break
        if quarantined:
            raise QuarantineError(quarantined)

    # ------------------------------------------------------------------
    def _run_pool(self, tasks, task_ids, pending, finish, consumer=None) -> None:
        """Fan ``pending`` out over a process pool, rebuilding it when a
        worker dies and isolating repeat offenders."""
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        policy = self.retry_policy
        chunk_size = self.chunk_size or default_chunk_size(
            len(pending), self.jobs
        )
        queue = [
            pending[i : i + chunk_size]
            for i in range(0, len(pending), chunk_size)
        ]
        # failed attempts per task, over every failure mode: worker
        # crash, transient error, chunk timeout
        attempts = {i: 0 for i in pending}
        crash_limit = (
            policy.max_attempts - 1 if policy is not None
            else self.max_task_retries
        )
        quarantined: list[TaskFailure] = []
        quarantined_ix = set()
        # Backpressure for order-pinning consumers: while the consumer
        # buffers more than a few chunks' worth of out-of-order results
        # (one slow task holding the fold back), stop feeding the pool —
        # in-flight futures keep draining, and the blocking task is
        # always already submitted (chunks are submitted in index order;
        # after a pool crash, completed work simply re-runs first).
        buffered = getattr(consumer, "buffered_tasks", None)
        window = (self.jobs * 2 + 2) * chunk_size

        def throttled() -> bool:
            return buffered is not None and buffered() > window

        def fail_crashed(i: int, cause: str) -> None:
            attempts[i] += 1
            if attempts[i] > crash_limit:
                raise SolverError(
                    f"campaign task {task_ids[i]!r} {cause} "
                    f"{attempts[i]} times"
                ) from None

        pool = ProcessPoolExecutor(max_workers=self.jobs)
        task_timeout = policy.task_timeout if policy is not None else None
        timed_out: set[int] = set()
        try:
            futures = {}
            deadlines: dict = {}
            submitted: dict = {}
            while queue or futures:
                while (
                    queue
                    and len(futures) < self.jobs * 2
                    # never starve: with no futures in flight, progress
                    # requires submitting regardless of buffered lag
                    and (not futures or not throttled())
                ):
                    chunk = queue.pop(0)
                    entries = [
                        (i, task_ids[i], attempts[i] + 1, tasks[i])
                        for i in chunk
                    ]
                    try:
                        future = pool.submit(
                            _run_chunk, self.worker, entries, self.fault_plan
                        )
                    except BrokenProcessPool:
                        # A worker died since the last completed chunk and
                        # the pool refuses new work. This chunk never ran:
                        # put it back. The dead pool's in-flight futures
                        # fail below, where the broken-future path
                        # rebuilds the pool and isolates their chunks;
                        # with none in flight, rebuild it here.
                        queue.insert(0, chunk)
                        if futures:
                            break
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=self.jobs)
                        continue
                    futures[future] = chunk
                    submitted[future] = time.perf_counter()
                    if task_timeout is not None:
                        deadlines[future] = (
                            time.monotonic() + task_timeout * len(chunk)
                        )
                if task_timeout is not None:
                    now = time.monotonic()
                    next_deadline = min(deadlines[f] for f in futures)
                    ready, _ = wait(
                        futures,
                        timeout=max(0.0, next_deadline - now) + 0.01,
                        return_when=FIRST_COMPLETED,
                    )
                    if not ready:
                        # A chunk exceeded its wall-time budget. The pool
                        # API cannot preempt one worker, so kill them all:
                        # every in-flight future then fails BrokenProcessPool
                        # and the expired chunk (remembered in ``timed_out``)
                        # is the one whose attempts are charged.
                        expired = [
                            f for f in futures
                            if deadlines[f] <= time.monotonic()
                        ]
                        if expired:
                            timed_out = set().union(
                                *(set(futures[f]) for f in expired)
                            )
                            for proc in list(
                                getattr(pool, "_processes", {}).values()
                            ):
                                proc.kill()
                        continue
                else:
                    ready, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in ready:
                    chunk = futures.pop(future)
                    deadlines.pop(future, None)
                    chunk_start = submitted.pop(future, None)
                    if tracer.enabled and chunk_start is not None:
                        # Chunk bodies run in worker processes, out of the
                        # ambient tracer's reach; the recorded duration is
                        # the submit-to-completion wall time seen here.
                        with tracer.span(
                            "chunk", n_tasks=len(chunk), first_index=chunk[0]
                        ) as chunk_span:
                            pass
                        chunk_span.duration = time.perf_counter() - chunk_start
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        # Unknown which task killed the worker (unless a
                        # timeout was just enforced): drain the other
                        # in-flight chunks back into the queue (their
                        # results, if any, are recomputed — tasks are
                        # pure), rebuild the pool, and retry the suspects
                        # in single-task chunks to isolate the killer.
                        # Restart the wait loop: the remaining futures
                        # all belong to the dead pool.
                        in_flight = [chunk] + [
                            futures.pop(f) for f in list(futures)
                        ]
                        deadlines.clear()
                        submitted.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=self.jobs)
                        if timed_out:
                            culprits, cause = sorted(timed_out), (
                                f"exceeded its {task_timeout}s task timeout"
                            )
                        else:
                            culprits, cause = chunk, (
                                "killed its worker process"
                            )
                        culprit_set = set(culprits)
                        timed_out = set()
                        survivors = [
                            [i for i in ch if i not in culprit_set]
                            for ch in in_flight
                        ]
                        retry = []
                        for i in culprits:
                            fail_crashed(i, cause)
                            retry.append([i])
                        queue = retry + [s for s in survivors if s] + queue
                        break
                    for index, payload in outcomes:
                        if payload[0] == "ok":
                            finish(index, payload[1])
                            continue
                        # Tasks the chunk completed before the error were
                        # just recorded above; the erroring task's fate
                        # depends on classification + policy, and the
                        # chunk's abandoned remainder goes back on the
                        # queue.
                        _, exc_repr, tb, transient = payload
                        attempts[index] += 1
                        processed = {ix for ix, _ in outcomes}
                        abandoned = [
                            i for i in chunk if i not in processed
                        ]
                        if abandoned:
                            queue.append(abandoned)
                        if (
                            policy is not None
                            and transient
                            and attempts[index] < policy.max_attempts
                        ):
                            self.last_retries += 1
                            delay = policy.delay(attempts[index])
                            if delay > 0:
                                # brief, bounded stall of the dispatch
                                # loop; in-flight futures keep running
                                time.sleep(delay)
                            queue.insert(0, [index])
                        elif (
                            policy is not None
                            and policy.quarantine
                            and not transient
                        ):
                            if index not in quarantined_ix:
                                quarantined_ix.add(index)
                                quarantined.append(TaskFailure(
                                    task_id=task_ids[index],
                                    index=index,
                                    error=exc_repr,
                                    traceback=tb,
                                    attempts=attempts[index],
                                ))
                        else:
                            attempts_note = (
                                f" after {attempts[index]} attempts"
                                if attempts[index] > 1 else ""
                            )
                            raise SolverError(
                                f"campaign task {task_ids[index]!r} failed"
                                f"{attempts_note}: {exc_repr}\n"
                                f"--- worker traceback ---\n{tb}"
                            )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if quarantined:
            quarantined.sort(key=lambda f: f.index)
            raise QuarantineError(quarantined)
