"""Fault paths of the campaign subsystem: checkpoint/resume round-trips,
worker-exception propagation as SolverError, worker-crash recovery, and
the ``jobs=1`` inline path behaving exactly like the old serial runner.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.experiments import run_setting, run_sweep, sample_settings
from repro.experiments.persistence import row_to_dict
from repro.parallel import (
    CampaignCheckpoint,
    CampaignEngine,
    CheckpointError,
    CheckpointWarning,
    build_sweep_tasks,
    default_chunk_size,
)
from repro.util.errors import SolverError
from repro.util.rng import spawn_seed_sequences

from tests.test_parallel_equivalence import assert_rows_identical


# ----------------------------------------------------------------------
# module-level workers (must be picklable for the pool tests)
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"task payload {x} is cursed")
    return x * x


def _crash_on_three(x):
    if x == 3:
        os._exit(17)  # hard worker death, not an exception
    return x * x


def _crash_once_flagfile(arg):
    """Dies the first time it sees payload 3 (flag file = crash memory)."""
    x, flag = arg
    if x == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    return x * x


class TestEngineFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_becomes_solver_error(self, jobs):
        engine = CampaignEngine(_fail_on_three, jobs=jobs)
        with pytest.raises(SolverError, match="cursed"):
            engine.run([1, 2, 3, 4])

    def test_completed_siblings_survive_a_failure(self, tmp_path):
        store = CampaignCheckpoint(tmp_path / "c.ckpt", fingerprint="f")
        engine = CampaignEngine(_fail_on_three, jobs=1)
        with pytest.raises(SolverError):
            engine.run([1, 2, 3, 4], task_ids=["a", "b", "c", "d"],
                       checkpoint=store)
        store.close()
        assert store.completed == {"a": 1, "b": 4}

    def test_persistent_worker_crash_is_reported(self):
        engine = CampaignEngine(_crash_on_three, jobs=2, max_task_retries=1)
        with pytest.raises(SolverError, match="killed its worker"):
            engine.run([1, 2, 3, 4, 5, 6])

    def test_transient_worker_crash_recovers(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        tasks = [(x, flag) for x in [1, 2, 3, 4, 5, 6]]
        engine = CampaignEngine(_crash_once_flagfile, jobs=2,
                                max_task_retries=2)
        assert engine.run(tasks) == [1, 4, 9, 16, 25, 36]
        assert os.path.exists(flag)  # it really did die once

    def test_crash_seen_at_submit_time_recovers(self, monkeypatch):
        """A worker death first noticed by ``submit`` (the pool refuses
        new work while the dead worker's chunk is still in flight) is
        retried like a broken future, not raised out of ``run``."""
        import repro.parallel.engine as engine_mod
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        pools = []

        class BreakingExecutor:
            """Runs chunks inline. In the first pool the worker running
            chunk 2 dies: that future stays pending until the third
            submit notices the break, fails it and raises."""

            def __init__(self, max_workers):
                self.first = not pools
                self.submits = 0
                self.dying = None
                pools.append(self)

            def submit(self, fn, *args):
                self.submits += 1
                if self.dying is not None:
                    self.dying.set_exception(BrokenProcessPool("worker died"))
                    raise BrokenProcessPool("worker died")
                future = Future()
                if self.first and self.submits == 2:
                    self.dying = future
                else:
                    future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", BreakingExecutor)
        engine = CampaignEngine(_square, jobs=2, chunk_size=1,
                                max_task_retries=1)
        assert engine.run([1, 2, 3, 4, 5, 6]) == [1, 4, 9, 16, 25, 36]
        assert len(pools) == 2  # the dead pool was replaced once

    def test_jobs_one_uses_no_process_pool(self, monkeypatch):
        import repro.parallel.engine as engine_mod

        def boom(*a, **k):  # pragma: no cover - must not be reached
            raise AssertionError("jobs=1 must never build a pool")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", boom)
        assert CampaignEngine(_square, jobs=1).run([2, 3]) == [4, 9]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(_square, jobs=0)
        with pytest.raises(ValueError):
            CampaignEngine(_square, chunk_size=0)
        engine = CampaignEngine(_square)
        with pytest.raises(ValueError):
            engine.run([1, 2], task_ids=["x"])  # length mismatch
        with pytest.raises(ValueError):
            engine.run([1, 2], task_ids=["x", "x"])  # duplicate ids

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(10, 1) == 10
        assert default_chunk_size(100, 4) == 7
        assert default_chunk_size(3, 8) == 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("t0", {"v": 1})
            store.record("t1", {"v": 2})
        resumed = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        assert resumed.completed == {"t0": {"v": 1}, "t1": {"v": 2}}

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp-a") as store:
            store.record("t0", 1)
        with pytest.raises(CheckpointError, match="different campaign"):
            CampaignCheckpoint(path, fingerprint="fp-b", resume=True)

    def test_truncated_tail_is_dropped_with_warning(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("t0", 1)
            store.record("t1", 2)
        # simulate a crash mid-write: chop the last line in half
        text = path.read_text()
        path.write_text(text[: len(text) - 8])
        with pytest.warns(CheckpointWarning, match="recomputed"):
            resumed = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        assert resumed.completed == {"t0": 1}

    def test_corrupt_final_record_skipped_not_crash(self, tmp_path):
        """A structurally-valid JSON line whose payload cannot be decoded
        (crash mid-write through a buffering layer) must warn + recompute
        — the regression was a hard crash on resume."""
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("t0", {"v": 1})
            store.record("t1", {"v": 2})
        with path.open("a") as fh:
            fh.write('{"kind": "task", "id": "t2"}\n')  # no "result" key
        with pytest.warns(CheckpointWarning, match="undecodable"):
            resumed = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        assert resumed.completed == {"t0": {"v": 1}, "t1": {"v": 2}}

    def test_corrupt_tail_is_truncated_on_next_write(self, tmp_path):
        """The first record() after a corrupt-tail resume physically
        drops the bad bytes, so the repaired file loads cleanly (and
        silently) next time."""
        import warnings

        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("t0", 1)
        with path.open("a") as fh:
            fh.write('{"kind": "task", "id"')  # torn mid-write
        with pytest.warns(CheckpointWarning):
            store = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        with store:
            store.record("t1", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clean file must not warn
            repaired = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        assert repaired.completed == {"t0": 1, "t1": 2}

    def test_final_record_missing_newline_survives_resume_cycles(
        self, tmp_path
    ):
        """A crash can flush a record's JSON body without its newline
        (record() issues two buffered writes). The record is complete
        data; the regression was the next append joining two records on
        one line, so a second resume dropped both (and everything
        after) as corrupt."""
        import warnings

        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("t0", 1)
            store.record("t1", 2)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))

        store = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        assert store.completed == {"t0": 1, "t1": 2}  # data kept, not dropped
        with store:
            store.record("t2", 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no joined/corrupt lines left
            again = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        assert again.completed == {"t0": 1, "t1": 2, "t2": 3}

    def test_resume_recomputes_tasks_dropped_by_corruption(self, tmp_path):
        """End-to-end: the task behind a corrupt record is re-run on
        resume and the campaign completes with correct results."""
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            CampaignEngine(_square, jobs=1).run(
                [1, 2, 3], task_ids=["a", "b", "c"], checkpoint=store
            )
        # corrupt the final record ("c"), torn mid-write
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
        calls = []

        def worker(x):
            calls.append(x)
            return x * x

        with pytest.warns(CheckpointWarning):
            store = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        with store:
            out = CampaignEngine(worker, jobs=1).run(
                [1, 2, 3], task_ids=["a", "b", "c"], checkpoint=store
            )
        assert out == [1, 4, 9]
        assert calls == [3]  # only the corrupted task re-ran

    def test_engine_skips_completed_tasks(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("0", 100)  # pre-recorded with a *wrong* value:
        calls = []

        def worker(x):
            calls.append(x)
            return x * x

        store = CampaignCheckpoint(path, fingerprint="fp", resume=True)
        out = CampaignEngine(worker, jobs=1).run(
            [1, 2], task_ids=["0", "1"], checkpoint=store
        )
        # ...proving task "0" was replayed from the store, not re-run.
        assert out == [100, 4]
        assert calls == [2]

    def test_crash_resume_restores_the_snapshot_from_the_sidecar(
        self, tmp_path
    ):
        from repro.parallel.checkpoint import PREFOLDED

        path = tmp_path / "c.ckpt"
        ids = ["a", "b", "c"]
        store = CampaignCheckpoint(path, fingerprint="fp", ordered_task_ids=ids)
        store.record("a", 1)
        store.record("b", 2)
        snapshot = {"n_folded": 2, "acc": [1, 2]}
        store.save_state(snapshot)
        store.record("c", 3)  # crash: the store is never closed
        lines = path.read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["campaign", "task", "task", "task"]

        resumed = CampaignCheckpoint(
            path, fingerprint="fp", resume=True, ordered_task_ids=ids
        )
        assert resumed.saved_state == snapshot
        assert resumed.completed == {"a": PREFOLDED, "b": PREFOLDED, "c": 3}

        store.state_path.unlink()  # the main file alone holds no snapshot
        replayed = CampaignCheckpoint(
            path, fingerprint="fp", resume=True, ordered_task_ids=ids
        )
        assert replayed.saved_state is None
        assert replayed.completed == {"a": 1, "b": 2, "c": 3}
        store.close()

    def test_in_file_state_record_is_an_unknown_kind(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CampaignCheckpoint(path, fingerprint="fp") as store:
            store.record("a", 1)
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "state", "state": {"n_folded": 1}}))
            fh.write("\n")
        with pytest.raises(
            CheckpointError, match=rf"c\.ckpt:3: unknown record kind 'state'"
        ):
            CampaignCheckpoint(path, fingerprint="fp", resume=True)


class TestSweepFaults:
    def test_worker_exception_propagates_from_run_sweep(self):
        settings_ = sample_settings(1, rng=0, k_values=[4])
        with pytest.raises(SolverError, match="no-such-method"):
            run_sweep(
                settings_, methods=("no-such-method",),
                objectives=("sum",), n_platforms=1, rng=0,
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checkpoint_resume_round_trip(self, tmp_path, jobs):
        settings_ = sample_settings(2, rng=8, k_values=[4, 5])
        kwargs = dict(
            methods=("greedy", "lprg"), objectives=("maxmin", "sum"),
            n_platforms=2, rng=8,
        )
        path = tmp_path / "sweep.ckpt"
        full = run_sweep(settings_, checkpoint=path, jobs=jobs, **kwargs)

        # interrupt: keep the header and the first completed task only
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_sweep(
            settings_, checkpoint=path, resume=True, jobs=jobs, **kwargs
        )
        assert_rows_identical(full, resumed)

    def test_full_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        settings_ = sample_settings(1, rng=4, k_values=[4])
        kwargs = dict(
            methods=("greedy",), objectives=("sum",), n_platforms=2, rng=4,
        )
        path = tmp_path / "sweep.ckpt"
        full = run_sweep(settings_, checkpoint=path, **kwargs)

        import repro.parallel.sweep as sweep_mod

        def forbidden(task):  # pragma: no cover - must not be reached
            raise AssertionError("resume must not re-run completed tasks")

        monkeypatch.setattr(sweep_mod, "run_sweep_task", forbidden)
        monkeypatch.setattr(
            "repro.parallel.run_sweep_task", forbidden
        )
        resumed = run_sweep(
            settings_, checkpoint=path, resume=True, **kwargs
        )
        assert_rows_identical(full, resumed)

    def test_resume_into_different_sweep_fails(self, tmp_path):
        settings_ = sample_settings(1, rng=4, k_values=[4])
        path = tmp_path / "sweep.ckpt"
        run_sweep(settings_, methods=("greedy",), objectives=("sum",),
                  n_platforms=1, rng=4, checkpoint=path)
        with pytest.raises(CheckpointError, match="different campaign"):
            run_sweep(settings_, methods=("greedy",), objectives=("sum",),
                      n_platforms=1, rng=5,  # different seed
                      checkpoint=path, resume=True)

    def test_checkpoint_stores_real_rows(self, tmp_path):
        settings_ = sample_settings(1, rng=4, k_values=[4])
        path = tmp_path / "sweep.ckpt"
        rows = run_sweep(settings_, methods=("greedy",), objectives=("sum",),
                         n_platforms=1, rng=4, checkpoint=path)
        import json
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "campaign" and lines[0]["n_tasks"] == 1
        stored = [r for rec in lines[1:] for r in rec["result"]]
        assert stored == [row_to_dict(r) for r in rows]

    def test_jobs_one_is_the_old_serial_runner(self, monkeypatch):
        """jobs=1 builds no pool and reproduces run_setting exactly."""
        import repro.parallel.engine as engine_mod

        def boom(*a, **k):  # pragma: no cover - must not be reached
            raise AssertionError("jobs=1 must never build a pool")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", boom)
        settings_ = sample_settings(2, rng=6, k_values=[4])
        swept = run_sweep(
            settings_, methods=("greedy", "lpr"), objectives=("maxmin",),
            n_platforms=2, rng=6, jobs=1,
        )
        manual = []
        for setting, seed in zip(settings_, spawn_seed_sequences(6, 2)):
            manual.extend(
                run_setting(
                    setting, methods=("greedy", "lpr"),
                    objectives=("maxmin",), n_platforms=2,
                    rng=np.random.default_rng(seed),
                )
            )
        assert_rows_identical(swept, manual)

    def test_tasks_and_ids_are_stable(self):
        settings_ = sample_settings(2, rng=1, k_values=[4])
        a = build_sweep_tasks(settings_, None, ("greedy",), ("sum",), 2, 1)
        b = build_sweep_tasks(settings_, None, ("greedy",), ("sum",), 2, 1)
        assert [t.task_id for t in a] == ["0/0", "0/1", "1/0", "1/1"]
        assert [t.seed.spawn_key for t in a] == [t.seed.spawn_key for t in b]
