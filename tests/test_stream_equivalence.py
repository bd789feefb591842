"""Property-based equivalence of streamed vs in-memory aggregation.

The contract under test (the streaming twin of PR-1's row equivalence):
for ANY execution pattern — worker count, chunking, completion order,
mid-sweep crash + resume — a ``stream=True`` sweep produces aggregate
tables **bitwise-identical** to the in-memory reference fold
(:meth:`SweepAccumulator.from_rows` over the materialised row list).
Wall-clock runtimes are the one sanctioned cross-run difference, so
comparisons against a *separate* run drop the runtime table; synthetic
campaigns carry deterministic fake runtimes and compare every byte.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.api import Solver, SolverConfig
from repro.experiments import sample_settings
from repro.experiments.aggregate import aggregate_rows
from repro.experiments.persistence import (
    load_rows_csv,
    load_rows_jsonl,
    row_from_dict,
    row_to_dict,
)
from repro.experiments.runner import ExperimentRow
from repro.parallel import (
    CampaignCheckpoint,
    CampaignEngine,
    StreamFold,
    SweepAccumulator,
    open_row_sink,
)
from repro.util.errors import SolverError

from tests.strategies import completion_orders, sweep_shapes
from tests.test_parallel_equivalence import assert_rows_identical

#: deterministic settings pool shared by every synthetic campaign
_SETTINGS = sample_settings(6, rng=2024, k_values=[3, 4, 5])


def synthetic_task_rows(task) -> list:
    """Deterministic fake replicate: run_replicate's row shape, no LP.

    Values (and fake runtimes) are a pure function of the task payload,
    so aggregates over synthetic campaigns are bitwise-comparable across
    runs — including the runtime table. Module-level for pool
    picklability. Occasionally emits zero values and zero LP bounds to
    exercise the inf/zero ratio paths.
    """
    setting_index, replicate, methods, objectives, seed = task
    setting = _SETTINGS[setting_index % len(_SETTINGS)]
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(setting_index, replicate))
    )
    rows = []
    for objective in objectives:
        lp_value = float(rng.choice([0.0, 50.0, 120.0, 400.0],
                                    p=[0.05, 0.4, 0.4, 0.15]))
        rows.append(
            ExperimentRow(
                setting=setting, replicate=replicate, objective=objective,
                method="lp", value=lp_value, lp_value=lp_value,
                runtime=round(float(rng.uniform(0.001, 0.01)), 6),
                n_lp_solves=1,
            )
        )
        for method in methods:
            value = float(rng.choice([0.0, 0.4, 0.8, 1.1]) * lp_value)
            rows.append(
                ExperimentRow(
                    setting=setting, replicate=replicate,
                    objective=objective, method=method, value=value,
                    lp_value=lp_value,
                    runtime=round(float(rng.uniform(0.001, 0.01)), 6),
                    n_lp_solves=int(rng.integers(1, 5)),
                )
            )
    return rows


def synthetic_tasks(shape: dict) -> list:
    return [
        (i, rep, shape["methods"], shape["objectives"], shape["seed"])
        for i in range(shape["n_settings"])
        for rep in range(shape["n_replicates"])
    ]


def _slow_first_task(arg):
    """Pool worker: the first task stalls until 13 later tasks finished
    (just past the backpressure window) — the reorder-buffer worst case
    the engine's throttle must cap. Progress is counted through a flag
    file because pool workers share no memory; without backpressure the
    engine would keep feeding and the buffer would grow towards
    O(tasks) while the first task waits."""
    import os
    import time

    task, flag = arg
    if task[0] == 0 and task[1] == 0:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                done = os.stat(flag).st_size
            except FileNotFoundError:
                done = 0
            if done >= 13:
                break
            time.sleep(0.005)
    else:
        with open(flag, "a") as fh:
            fh.write(".")
    return synthetic_task_rows(task)


def reference_tables(tasks) -> dict:
    agg = SweepAccumulator()
    for task in tasks:
        agg.fold_task(synthetic_task_rows(task))
    return agg.tables()


def dumps(tables: dict) -> str:
    """Bitwise-comparable serialisation (NaN-safe, order-pinned)."""
    return json.dumps(tables, sort_keys=True)


def _row_codec() -> dict:
    """Checkpoint encode/decode for ExperimentRow-list results (what
    ``Solver.sweep`` installs on its own checkpoints)."""
    return dict(
        encode=lambda rows: [row_to_dict(r) for r in rows],
        decode=lambda rows: [row_from_dict(r) for r in rows],
    )


def tables_sans_runtime(agg) -> dict:
    """Aggregate tables without the (wall-clock) runtime series — the
    comparison unit across *separate* real sweep executions."""
    tables = agg.tables()
    tables.pop("runtime_mean_by_k")
    return tables


class TestFoldOrderInvariance:
    """The fold is pinned to task index, not completion order."""

    @hyp_settings(max_examples=40)
    @given(shape=sweep_shapes(), data=st.data())
    def test_any_completion_order_is_bitwise_identical(self, shape, data):
        tasks = synthetic_tasks(shape)
        order = data.draw(completion_orders(len(tasks)))
        fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks))
        for index in order:
            fold.add(index, synthetic_task_rows(tasks[index]))
        assert dumps(fold.finalize().tables()) == dumps(reference_tables(tasks))

    @hyp_settings(max_examples=15)
    @given(shape=sweep_shapes())
    def test_engine_jobs_and_chunking_are_bitwise_identical(self, shape):
        tasks = synthetic_tasks(shape)
        engine = CampaignEngine(
            synthetic_task_rows,
            jobs=shape["jobs"],
            chunk_size=shape["chunk_size"],
        )
        fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks))
        assert engine.run(tasks, consumer=fold) is None
        assert dumps(fold.finalize().tables()) == dumps(reference_tables(tasks))

    def test_slow_task_does_not_grow_the_reorder_buffer(self, tmp_path):
        """One task stalling the fold must throttle the pool: the
        buffer stays O(jobs x chunk_size), never O(tasks)."""
        shape = dict(n_settings=4, n_replicates=16, methods=("greedy",),
                     objectives=("sum",), seed=3)
        tasks = synthetic_tasks(shape)

        class WatchedFold(StreamFold):
            max_buffered = 0

            def add(self, index, result):
                super().add(index, result)
                WatchedFold.max_buffered = max(
                    WatchedFold.max_buffered, len(self.pending)
                )

        jobs, chunk_size = 2, 2
        fold = WatchedFold(SweepAccumulator(), n_tasks=len(tasks))
        engine = CampaignEngine(
            _slow_first_task, jobs=jobs, chunk_size=chunk_size
        )
        engine.run([(t, str(tmp_path / "gate")) for t in tasks],
                   consumer=fold)
        tables = fold.finalize().tables()
        assert dumps(tables) == dumps(reference_tables(tasks))
        window = (jobs * 2 + 2) * chunk_size
        assert WatchedFold.max_buffered <= window + jobs * 2 * chunk_size, (
            f"reorder buffer reached {WatchedFold.max_buffered} tasks "
            f"({len(tasks)} total) despite the backpressure window"
        )

    def test_permanently_lagging_consumer_cannot_deadlock_the_pool(self):
        """The starvation guard: even a consumer that always reports a
        huge backlog must not stop the pool from making progress (one
        chunk at a time when nothing is in flight)."""
        shape = dict(n_settings=2, n_replicates=6, methods=("greedy",),
                     objectives=("sum",), seed=7)
        tasks = synthetic_tasks(shape)

        class AlwaysLagging(StreamFold):
            def buffered_tasks(self):
                return 10_000

        fold = AlwaysLagging(SweepAccumulator(), n_tasks=len(tasks))
        CampaignEngine(synthetic_task_rows, jobs=2, chunk_size=1).run(
            tasks, consumer=fold
        )
        assert dumps(fold.finalize().tables()) == dumps(
            reference_tables(tasks)
        )

    def test_duplicate_delivery_is_rejected(self):
        shape = dict(n_settings=1, n_replicates=2, methods=("greedy",),
                     objectives=("sum",), seed=1)
        tasks = synthetic_tasks(shape)
        fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks))
        fold.add(0, synthetic_task_rows(tasks[0]))
        with pytest.raises(SolverError, match="twice"):
            fold.add(0, synthetic_task_rows(tasks[0]))

    def test_incomplete_fold_is_rejected(self):
        fold = StreamFold(SweepAccumulator(), n_tasks=3)
        fold.add(0, [])
        with pytest.raises(SolverError, match="incomplete"):
            fold.finalize()


class _CrashAfter:
    """Inline worker that raises once N tasks have been computed."""

    def __init__(self, crash_after: "int | None"):
        self.crash_after = crash_after
        self.calls = 0

    def __call__(self, task):
        if self.crash_after is not None and self.calls >= self.crash_after:
            raise RuntimeError("simulated mid-sweep crash")
        self.calls += 1
        return synthetic_task_rows(task)


class TestCrashResume:
    @hyp_settings(max_examples=25)
    @given(
        shape=sweep_shapes(),
        snapshot_every=st.integers(min_value=1, max_value=5),
    )
    def test_crash_and_resume_is_bitwise_identical(
        self, tmp_path_factory, shape, snapshot_every
    ):
        """Kill the campaign after a sampled number of tasks, resume it,
        and require the final aggregate bitwise-equal to an
        uninterrupted run — for any shape and snapshot cadence."""
        tasks = synthetic_tasks(shape)
        task_ids = [f"{t[0]}/{t[1]}" for t in tasks]
        path = tmp_path_factory.mktemp("stream-ckpt") / "c.ckpt"

        def run(worker, resume: bool):
            store = CampaignCheckpoint(
                path, fingerprint="synthetic", resume=resume,
                ordered_task_ids=task_ids, **_row_codec(),
            )
            fold = StreamFold(
                SweepAccumulator(), n_tasks=len(tasks), task_ids=task_ids,
                checkpoint=store, snapshot_every=snapshot_every,
            )
            if store.saved_state is not None:
                fold.restore(store.saved_state)
            engine = CampaignEngine(worker, jobs=1)
            try:
                engine.run(
                    tasks, task_ids=task_ids, checkpoint=store, consumer=fold
                )
                return fold.finalize()
            finally:
                store.close()

        if shape["crash_after"] is not None:
            with pytest.raises(SolverError, match="simulated"):
                run(_CrashAfter(shape["crash_after"]), resume=False)
            resumed = run(_CrashAfter(None), resume=True)
        else:
            resumed = run(_CrashAfter(None), resume=False)
        assert dumps(resumed.tables()) == dumps(reference_tables(tasks))

    def test_resume_after_snapshot_refolds_nothing_before_it(self, tmp_path):
        """Tasks covered by the accumulator snapshot are neither re-run
        nor re-decoded into rows: the engine replays the sentinel."""
        shape = dict(n_settings=2, n_replicates=3, methods=("greedy",),
                     objectives=("sum",), seed=9)
        tasks = synthetic_tasks(shape)
        task_ids = [f"{t[0]}/{t[1]}" for t in tasks]
        path = tmp_path / "c.ckpt"
        store = CampaignCheckpoint(path, fingerprint="s",
                                   ordered_task_ids=task_ids, **_row_codec())
        fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks),
                          task_ids=task_ids, checkpoint=store,
                          snapshot_every=1)
        CampaignEngine(synthetic_task_rows, jobs=1).run(
            tasks, task_ids=task_ids, checkpoint=store, consumer=fold
        )
        expected = fold.finalize()
        store.close()

        def forbidden(task):  # pragma: no cover - must not be reached
            raise AssertionError("snapshot-covered tasks must not re-run")

        from repro.parallel.checkpoint import PREFOLDED

        store = CampaignCheckpoint(path, fingerprint="s", resume=True,
                                   ordered_task_ids=task_ids, **_row_codec())
        # every completed payload was snapshot-covered -> sentinel only
        assert all(v is PREFOLDED for v in store.completed.values())
        fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks),
                          task_ids=task_ids, checkpoint=store)
        fold.restore(store.saved_state)
        CampaignEngine(forbidden, jobs=1).run(
            tasks, task_ids=task_ids, checkpoint=store, consumer=fold
        )
        assert dumps(fold.finalize().tables()) == dumps(expected.tables())
        store.close()


class TestSnapshotSidecar:
    """Snapshots live in an atomically-replaced sidecar: the main
    checkpoint file stays O(task records) however often we snapshot."""

    def _run(self, n_replicates: int, path, snapshot_every: int = 1):
        shape = dict(n_settings=2, n_replicates=n_replicates,
                     methods=("greedy",), objectives=("sum",), seed=5)
        tasks = synthetic_tasks(shape)
        task_ids = [f"{t[0]}/{t[1]}" for t in tasks]
        with CampaignCheckpoint(path, fingerprint="sc",
                                ordered_task_ids=task_ids,
                                **_row_codec()) as store:
            fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks),
                              task_ids=task_ids, checkpoint=store,
                              snapshot_every=snapshot_every)
            CampaignEngine(synthetic_task_rows, jobs=1).run(
                tasks, task_ids=task_ids, checkpoint=store, consumer=fold
            )
            fold.finalize()
        return store

    def test_main_file_holds_no_state_records(self, tmp_path):
        store = self._run(4, tmp_path / "c.ckpt")
        assert '"kind": "state"' not in (tmp_path / "c.ckpt").read_text()
        assert store.state_path.exists()

    def test_sidecar_size_independent_of_snapshot_count(self, tmp_path):
        small = self._run(2, tmp_path / "small.ckpt")   # 4 snapshots
        large = self._run(24, tmp_path / "large.ckpt")  # 48 snapshots
        size_small = small.state_path.stat().st_size
        size_large = large.state_path.stat().st_size
        # one snapshot each (atomically replaced), not an append log
        assert size_large < 2 * size_small + 1024

    def test_inconsistent_snapshot_discarded_with_warning(self, tmp_path):
        from repro.parallel import CheckpointWarning

        path = tmp_path / "c.ckpt"
        self._run(3, path)
        # drop most task records while the sidecar still claims them
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        shape = dict(n_settings=2, n_replicates=3, methods=("greedy",),
                     objectives=("sum",), seed=5)
        tasks = synthetic_tasks(shape)
        task_ids = [f"{t[0]}/{t[1]}" for t in tasks]
        with pytest.warns(CheckpointWarning, match="discarding the snapshot"):
            store = CampaignCheckpoint(path, fingerprint="sc", resume=True,
                                       ordered_task_ids=task_ids,
                                       **_row_codec())
        assert store.saved_state is None  # falls back to record replay
        fold = StreamFold(SweepAccumulator(), n_tasks=len(tasks),
                          task_ids=task_ids, checkpoint=store)
        CampaignEngine(synthetic_task_rows, jobs=1).run(
            tasks, task_ids=task_ids, checkpoint=store, consumer=fold
        )
        assert dumps(fold.finalize().tables()) == dumps(
            reference_tables(tasks)
        )
        store.close()

    def test_stale_format_snapshot_falls_back_to_record_replay(
        self, tmp_path
    ):
        """A snapshot written by an older accumulator format (e.g. the
        pre-exact-sum STATE_VERSION 1) must be discarded with a warning
        — leaving the task records replayable — not crash the resume."""
        from repro.parallel import CheckpointWarning

        settings = sample_settings(2, rng=8, k_values=[4])
        kwargs = dict(
            methods=("greedy",), objectives=("sum",), n_platforms=2, rng=8
        )
        path = tmp_path / "sweep.ckpt"
        streamed = dict(stream=True, checkpoint=str(path))
        full = Solver(SolverConfig(**streamed)).sweep(settings, **kwargs)
        sidecar = path.with_name(path.name + ".state")
        record = json.loads(sidecar.read_text())
        record["state"]["aggregate"] = {"version": 1, "mean": 0.0}
        sidecar.write_text(json.dumps(record))
        with pytest.warns(CheckpointWarning, match="incompatible"):
            resumed = Solver(SolverConfig(**streamed, resume=True)).sweep(
                settings, **kwargs
            )
        # record replay reproduces everything, runtimes included
        assert dumps(resumed.tables()) == dumps(full.tables())

    def test_sidecar_fingerprint_mismatch_refuses_resume(self, tmp_path):
        from repro.parallel import CheckpointError

        path = tmp_path / "c.ckpt"
        self._run(2, path)
        # same main-file fingerprint, tampered sidecar fingerprint
        sidecar = path.with_name(path.name + ".state")
        record = json.loads(sidecar.read_text())
        record["fingerprint"] = "other-campaign"
        sidecar.write_text(json.dumps(record))
        with pytest.raises(CheckpointError, match="different campaign"):
            CampaignCheckpoint(path, fingerprint="sc", resume=True,
                               **_row_codec())

    def test_fresh_campaign_clears_stale_sidecar(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._run(2, path)
        sidecar = path.with_name(path.name + ".state")
        assert sidecar.exists()
        # restart WITHOUT resume: the stale snapshot must not survive
        with CampaignCheckpoint(path, fingerprint="sc") as store:
            store.record("0/0", [])
        assert not sidecar.exists()


class TestRealSweepEquivalence:
    """The facade path on real (small) sweeps."""

    @pytest.fixture(scope="class")
    def sweep_def(self):
        return dict(
            settings=sample_settings(2, rng=8, k_values=[4, 5]),
            kwargs=dict(
                methods=("greedy", "lprg"),
                objectives=("maxmin", "sum"),
                n_platforms=2,
                rng=8,
            ),
        )

    @pytest.fixture(scope="class")
    def reference(self, sweep_def):
        rows = Solver().sweep(sweep_def["settings"], **sweep_def["kwargs"])
        agg = aggregate_rows(
            rows,
            methods=sweep_def["kwargs"]["methods"],
            objectives=sweep_def["kwargs"]["objectives"],
        )
        return rows, agg

    @pytest.mark.parametrize(
        "jobs,chunk_size", [(1, None), (2, None), (2, 1), (3, 2)]
    )
    def test_streamed_matches_in_memory_fold(
        self, sweep_def, reference, jobs, chunk_size
    ):
        _, ref_agg = reference
        solver = Solver(
            SolverConfig(stream=True, jobs=jobs, chunk_size=chunk_size)
        )
        streamed = solver.sweep(sweep_def["settings"], **sweep_def["kwargs"])
        assert dumps(tables_sans_runtime(streamed)) == dumps(
            tables_sans_runtime(ref_agg)
        )

    def test_streamed_checkpoint_crash_resume(
        self, sweep_def, reference, tmp_path
    ):
        _, ref_agg = reference
        path = tmp_path / "sweep.ckpt"
        streamed = dict(stream=True, checkpoint=str(path))
        full = Solver(SolverConfig(**streamed)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        # interrupt: keep the header and the first completed task only
        lines = path.read_text().splitlines()
        kept = [l for l in lines if '"kind": "state"' not in l][:2]
        path.write_text("\n".join(kept) + "\n")
        resumed = Solver(SolverConfig(**streamed, resume=True)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        assert dumps(tables_sans_runtime(resumed)) == dumps(
            tables_sans_runtime(full)
        )
        assert dumps(tables_sans_runtime(resumed)) == dumps(
            tables_sans_runtime(ref_agg)
        )

    def test_full_streaming_resume_recomputes_nothing(
        self, sweep_def, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.ckpt"
        streamed = dict(stream=True, checkpoint=str(path))
        full = Solver(SolverConfig(**streamed)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )

        def forbidden(task):  # pragma: no cover - must not be reached
            raise AssertionError("resume must not re-run completed tasks")

        monkeypatch.setattr("repro.parallel.sweep.run_sweep_task", forbidden)
        monkeypatch.setattr("repro.parallel.run_sweep_task", forbidden)
        resumed = Solver(SolverConfig(**streamed, resume=True)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        # snapshot restore preserves even the runtime table bitwise
        assert dumps(resumed.tables()) == dumps(full.tables())

    def test_jsonl_row_sink_holds_the_rows(
        self, sweep_def, reference, tmp_path
    ):
        rows, _ = reference
        sink = tmp_path / "rows.jsonl"
        Solver(SolverConfig(stream=True, row_sink=str(sink))).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        assert_rows_identical(load_rows_jsonl(sink), rows)

    def test_csv_row_sink_holds_the_rows(self, sweep_def, reference, tmp_path):
        rows, _ = reference
        sink = tmp_path / "rows.csv"
        Solver(SolverConfig(stream=True, row_sink=str(sink))).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        assert_rows_identical(load_rows_csv(sink), rows)

    @pytest.mark.parametrize(
        "first_sink,second_sink",
        [(None, "rows.jsonl"), ("rows.jsonl", None),
         ("rows.jsonl", "other.jsonl")],
    )
    def test_resume_with_changed_row_sink_is_refused(
        self, sweep_def, tmp_path, first_sink, second_sink
    ):
        """A snapshot pins its sink: silently resuming into a different
        sink would drop every already-folded row from the file."""

        def sink_path(name):
            return None if name is None else str(tmp_path / name)

        streamed = dict(stream=True, checkpoint=str(tmp_path / "sweep.ckpt"))
        Solver(SolverConfig(**streamed, row_sink=sink_path(first_sink))).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        with pytest.raises(SolverError, match="row_sink"):
            Solver(
                SolverConfig(
                    **streamed, resume=True, row_sink=sink_path(second_sink)
                )
            ).sweep(sweep_def["settings"], **sweep_def["kwargs"])

    def test_sink_restored_exactly_after_crash_resume(
        self, sweep_def, reference, tmp_path
    ):
        """After crash+resume the sink holds each row exactly once."""
        rows, _ = reference
        path = tmp_path / "sweep.ckpt"
        sink = tmp_path / "rows.jsonl"
        streamed = dict(stream=True, checkpoint=str(path), row_sink=str(sink))
        Solver(SolverConfig(**streamed)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        lines = path.read_text().splitlines()
        kept = [l for l in lines if '"kind": "state"' not in l][:3]
        path.write_text("\n".join(kept) + "\n")
        Solver(SolverConfig(**streamed, resume=True)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        assert_rows_identical(load_rows_jsonl(sink), rows)


class TestStreamEdgeCases:
    def test_empty_sweep_streams_to_empty_aggregate(self):
        agg = Solver(SolverConfig(stream=True)).sweep(
            [], methods=("greedy",), objectives=("sum",), n_platforms=1, rng=0
        )
        assert agg.n_rows == 0 and agg.n_tasks == 0
        assert agg.tables()["mean_ratio_by_k"] == {}

    def test_row_sink_without_stream_is_refused(self):
        with pytest.raises(SolverError, match="stream"):
            SolverConfig(row_sink="rows.jsonl")

    def test_unwritable_row_sink_fails_before_any_work(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "rows.jsonl"
        with pytest.raises(SolverError, match="does not exist"):
            Solver(SolverConfig(stream=True, row_sink=str(missing))).sweep(
                sample_settings(1, rng=0, k_values=[4]),
                methods=("greedy",), objectives=("sum",),
                n_platforms=1, rng=0,
            )

    def test_open_row_sink_dispatches_on_suffix(self, tmp_path):
        from repro.parallel.stream import (
            CsvRowSink,
            JsonlRowSink,
            NullRowSink,
        )

        assert isinstance(open_row_sink(None), NullRowSink)
        assert isinstance(open_row_sink(tmp_path / "x.csv"), CsvRowSink)
        assert isinstance(open_row_sink(tmp_path / "x.jsonl"), JsonlRowSink)
        assert isinstance(open_row_sink(tmp_path / "x.txt"), JsonlRowSink)
