"""Parallel campaign execution: batched solving and process-pool sweeps.

The package has three layers, each usable on its own:

* :func:`solve_many` — the legacy batched shim over
  :meth:`repro.api.Solver.solve_many`: many independent instances, one
  call, optional process-pool fan-out.
* :class:`CampaignEngine` — generic deterministic task runner
  (chunked scheduling, worker-crash recovery, ``jobs=1`` inline
  reference path) behind :meth:`repro.api.Solver.sweep` and
  :meth:`repro.api.Solver.solve_many`.
* :class:`CampaignCheckpoint` — append-only incremental checkpoint
  store giving interrupted campaigns exact resume.
* :mod:`repro.parallel.stream` — streaming aggregation: mergeable
  constant-size accumulators (:class:`SweepAccumulator`), pluggable
  :class:`RowSink` destinations for raw rows, and the order-pinning
  :class:`StreamFold` engine consumer, so million-row sweeps never hold
  their rows in memory.

Everything is seeded through stateless ``SeedSequence`` spawning
(:mod:`repro.util.rng`), so results never depend on ``jobs``, chunking
or scheduling order: the parallel path is bitwise-equal to the serial
one — and so is the streamed aggregate (fold order is pinned to the
task index).
"""

from repro.parallel.batch import solve_many
from repro.parallel.checkpoint import (
    PREFOLDED,
    CampaignCheckpoint,
    CheckpointError,
    CheckpointWarning,
    campaign_fingerprint,
)
from repro.parallel.engine import (
    CampaignEngine,
    QuarantineError,
    RetryPolicy,
    TaskFailure,
    default_chunk_size,
)
from repro.parallel.stream import (
    CallbackRowSink,
    CountAccumulator,
    CsvRowSink,
    JsonlRowSink,
    MeanVarAccumulator,
    MinMaxAccumulator,
    NullRowSink,
    PairRatioAccumulator,
    QuantileAccumulator,
    RatioBoundAccumulator,
    RowSink,
    StatAccumulator,
    StreamFold,
    SweepAccumulator,
    iter_task_groups,
    open_row_sink,
    snapshot_compatible,
    validate_row_sink_path,
)
from repro.parallel.sweep import (
    SweepTask,
    build_sweep_tasks,
    run_sweep_task,
    sweep_fingerprint,
)

__all__ = [
    "solve_many",
    "CampaignEngine",
    "default_chunk_size",
    "RetryPolicy",
    "TaskFailure",
    "QuarantineError",
    "CampaignCheckpoint",
    "CheckpointError",
    "CheckpointWarning",
    "PREFOLDED",
    "campaign_fingerprint",
    "SweepTask",
    "build_sweep_tasks",
    "run_sweep_task",
    "sweep_fingerprint",
    # streaming aggregation
    "SweepAccumulator",
    "StreamFold",
    "RowSink",
    "NullRowSink",
    "JsonlRowSink",
    "CsvRowSink",
    "CallbackRowSink",
    "open_row_sink",
    "snapshot_compatible",
    "validate_row_sink_path",
    "iter_task_groups",
    "CountAccumulator",
    "MeanVarAccumulator",
    "MinMaxAccumulator",
    "StatAccumulator",
    "QuantileAccumulator",
    "RatioBoundAccumulator",
    "PairRatioAccumulator",
]
