"""Supervised execution: engine retry/quarantine + shard supervision.

Three layers under test. (1) The engine's :class:`RetryPolicy` path:
transient faults retried with backoff, deterministic faults quarantined
after the campaign completes, pool crashes and task timeouts bounded.
(2) Offline shard surgery: heartbeats, :func:`shard_progress`, and
:func:`steal_shard` splitting a dead shard at its durable watermark.
(3) The :class:`ShardSupervisor` end-to-end: shard-level retry,
quarantine classification (inline and across the subprocess CLI's
exit-code/stderr contract), straggler stealing on a preempting backend
— all of it leaving the merged aggregate bitwise-identical to the
fault-free serial fold.
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

import pytest

from repro import Solver
from repro.distrib import (
    QUARANTINE_EXIT,
    InlineShardExecutor,
    ProcessShardExecutor,
    ShardCancelled,
    ShardCrashError,
    ShardError,
    ShardSupervisor,
    SubprocessShardExecutor,
    SupervisionOptions,
    build_shard_manifests,
    campaign_status,
    classify_shard_failure,
    load_manifests,
    merge_shards,
    read_heartbeat,
    run_shard,
    shard_progress,
    steal_shard,
    write_manifests,
)
from repro.distrib.executor import ShardExitError
from repro.experiments import sample_settings
from repro.experiments.config import DEFAULT_SCENARIO
from repro.parallel import build_sweep_tasks
from repro.parallel.engine import (
    CampaignEngine,
    QuarantineError,
    RetryPolicy,
    TaskFailure,
)
from repro.parallel.stream import SweepAccumulator
from repro.util.errors import SolverError
from repro.util.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
    InjectedShardKill,
)
from repro.util.rng import seed_sequence_of

from tests.test_distrib_campaign import tables_sans_runtime
from tests.test_stream_equivalence import synthetic_task_rows

#: backoff-free policies keep the suite fast and deterministic
FAST = RetryPolicy(max_attempts=3, backoff=0.0)


def _double(x):
    return x * 2


def _sleep_if_zero(task):
    if task == 0:
        time.sleep(30)
    return task


def _sleep_zero_once(arg):
    task, flag = arg
    if task == 0:
        marker = Path(flag)
        if not marker.exists():
            marker.write_text("x")
            time.sleep(30)
    return task


def fake_sweep_worker(task):
    """Deterministic no-LP stand-in for ``run_sweep_task`` (inline use)."""
    return synthetic_task_rows(
        (task.setting_index, task.replicate, task.methods,
         task.objectives, 99)
    )


# ----------------------------------------------------------------------
# synthetic campaign plumbing
# ----------------------------------------------------------------------

@pytest.fixture()
def synthetic_campaign(monkeypatch):
    monkeypatch.setattr(
        "repro.parallel.sweep.run_sweep_task", fake_sweep_worker
    )
    return dict(
        settings=sample_settings(3, rng=7, k_values=[3, 4]),
        scenario=DEFAULT_SCENARIO,
        methods=("greedy",),
        objectives=("maxmin",),
        n_platforms=2,
        root=seed_sequence_of(7),
    )


def _plan(campaign, shard_dir, n_shards):
    manifests = build_shard_manifests(
        campaign["settings"], campaign["scenario"], campaign["methods"],
        campaign["objectives"], campaign["n_platforms"], campaign["root"],
        n_shards=n_shards, shard_dir=shard_dir,
    )
    write_manifests(manifests, shard_dir)
    return manifests


def _reference_state(campaign) -> dict:
    tasks = build_sweep_tasks(
        campaign["settings"], campaign["scenario"], campaign["methods"],
        campaign["objectives"], campaign["n_platforms"], campaign["root"],
    )
    acc = SweepAccumulator()
    for task in tasks:
        acc.fold_task(fake_sweep_worker(task))
    return acc.state_dict()


# ----------------------------------------------------------------------
# RetryPolicy / SupervisionOptions
# ----------------------------------------------------------------------

class TestPolicies:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, max_backoff=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)
        assert RetryPolicy(backoff=0.0).delay(5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="task_timeout"):
            RetryPolicy(task_timeout=0)
        with pytest.raises(ValueError, match="unknown RetryPolicy"):
            RetryPolicy.from_dict({"attempts": 3})
        assert RetryPolicy.from_dict(FAST.to_dict()) == FAST

    def test_supervision_options_validation_and_round_trip(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            SupervisionOptions(shard_timeout=0)
        with pytest.raises(ValueError, match="straggler_after"):
            SupervisionOptions(straggler_after=-1)
        with pytest.raises(ValueError, match="min_steal_tasks"):
            SupervisionOptions(min_steal_tasks=0)
        with pytest.raises(ValueError, match="must be a RetryPolicy"):
            SupervisionOptions(retry={"max_attempts": 3})
        with pytest.raises(ValueError, match="unknown SupervisionOptions"):
            SupervisionOptions.from_dict({"stragglers": 1})
        opts = SupervisionOptions(retry=FAST, straggler_after=1.5)
        assert SupervisionOptions.from_dict(opts.to_dict()) == opts

    def test_quarantine_error_survives_pickling(self):
        exc = QuarantineError([
            TaskFailure(task_id="2/0", index=2, error="ValueError('x')",
                        traceback="tb", attempts=1),
        ])
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, QuarantineError)
        assert clone.failures == exc.failures
        assert "2/0" in str(clone)


# ----------------------------------------------------------------------
# the engine's supervised mode
# ----------------------------------------------------------------------

class TestEngineSupervised:
    def test_serial_transient_fault_is_retried_and_heals(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="error", match="2", times=2),
        ))
        engine = CampaignEngine(
            _double, jobs=1, retry_policy=FAST, fault_plan=plan
        )
        assert engine.run(range(5)) == [0, 2, 4, 6, 8]
        assert engine.last_retries == 2

    def test_serial_without_policy_keeps_failing_fast(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="error", match="2"),
        ))
        engine = CampaignEngine(_double, jobs=1, fault_plan=plan)
        with pytest.raises(SolverError, match="campaign task '2' failed"):
            engine.run(range(5))

    def test_serial_exhausted_retries_name_the_attempts(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="error", match="2", times=99),
        ))
        engine = CampaignEngine(
            _double, jobs=1, retry_policy=FAST, fault_plan=plan
        )
        with pytest.raises(SolverError, match="after 3 attempts"):
            engine.run(range(5))

    def test_serial_quarantine_completes_the_campaign(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="fatal", match="1", times=99),
            FaultRule(scope="task", fault="fatal", match="3", times=99),
        ))
        engine = CampaignEngine(
            _double, jobs=1, retry_policy=FAST, fault_plan=plan
        )
        consumed: dict = {}

        class Consumer:
            def add(self, index, result):
                consumed[index] = result

        with pytest.raises(QuarantineError) as excinfo:
            engine.run(range(5), consumer=Consumer())
        failures = excinfo.value.failures
        assert [f.task_id for f in failures] == ["1", "3"]
        assert all("InjectedTaskError" in f.error for f in failures)
        assert consumed == {0: 0, 2: 4, 4: 8}  # every other task finished

    def test_serial_quarantine_off_aborts_on_first_deterministic(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="fatal", match="1"),
        ))
        policy = RetryPolicy(backoff=0.0, quarantine=False)
        engine = CampaignEngine(
            _double, jobs=1, retry_policy=policy, fault_plan=plan
        )
        with pytest.raises(SolverError, match="campaign task '1' failed"):
            engine.run(range(5))

    def test_pool_transient_fault_is_retried_and_heals(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="error", match="3", times=1),
        ))
        engine = CampaignEngine(
            _double, jobs=2, chunk_size=2, retry_policy=FAST, fault_plan=plan
        )
        assert engine.run(range(8)) == [2 * i for i in range(8)]
        assert engine.last_retries == 1

    def test_pool_quarantine_reports_every_failure_in_task_order(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="fatal", match="1", times=99),
            FaultRule(scope="task", fault="fatal", match="6", times=99),
        ))
        engine = CampaignEngine(
            _double, jobs=2, chunk_size=3, retry_policy=FAST, fault_plan=plan
        )
        with pytest.raises(QuarantineError) as excinfo:
            engine.run(range(8))
        assert [f.task_id for f in excinfo.value.failures] == ["1", "6"]

    def test_pool_worker_crash_is_retried_under_policy(self):
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="crash", match="2", times=1),
        ))
        engine = CampaignEngine(
            _double, jobs=2, chunk_size=1,
            retry_policy=RetryPolicy(max_attempts=2, backoff=0.0),
            fault_plan=plan,
        )
        assert engine.run(range(4)) == [0, 2, 4, 6]

    def test_pool_task_timeout_aborts_when_budget_is_one(self):
        policy = RetryPolicy(max_attempts=1, backoff=0.0, task_timeout=0.4)
        engine = CampaignEngine(
            _sleep_if_zero, jobs=2, chunk_size=1, retry_policy=policy,
            fault_plan=None,
        )
        with pytest.raises(SolverError, match="task timeout"):
            engine.run(range(4))

    def test_pool_task_timeout_retry_recovers(self, tmp_path):
        flag = tmp_path / "flag"
        policy = RetryPolicy(max_attempts=2, backoff=0.0, task_timeout=0.6)
        engine = CampaignEngine(
            _sleep_zero_once, jobs=2, chunk_size=1, retry_policy=policy,
            fault_plan=None,
        )
        tasks = [(i, str(flag)) for i in range(4)]
        assert engine.run(tasks) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

class TestClassification:
    @pytest.mark.parametrize(
        "exc,expected",
        [
            (ShardExitError("m.json", QUARANTINE_EXIT, ""), "deterministic"),
            (ShardExitError("m.json", 1, "boom"), "transient"),
            (ShardExitError("m.json", 73, ""), "transient"),
            (QuarantineError([]), "deterministic"),
            (ShardCrashError("died"), "transient"),
            (ShardCancelled("stolen"), "transient"),
            (InjectedShardKill("kill"), "transient"),
            (OSError("io"), "transient"),
            (TimeoutError(), "transient"),
            (ValueError("bug"), "deterministic"),
            (SolverError("bug"), "deterministic"),
        ],
    )
    def test_classify_shard_failure(self, exc, expected):
        assert classify_shard_failure(exc) == expected

    def test_shard_exit_error_pickles_with_context(self):
        exc = ShardExitError("/tmp/m.json", 5, "trace tail")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.manifest_path == "/tmp/m.json"
        assert clone.returncode == 5
        assert clone.stderr_tail == "trace tail"
        assert "exited with code 5" in str(clone)


# ----------------------------------------------------------------------
# heartbeats, status, offline stealing
# ----------------------------------------------------------------------

class TestOfflineSupervision:
    def test_heartbeat_round_trip(self, tmp_path):
        path = tmp_path / "s.heartbeat"
        assert read_heartbeat(path) is None
        from repro.distrib import write_heartbeat

        write_heartbeat(path, 3, 10)
        beat = read_heartbeat(path)
        assert beat["tasks_done"] == 3 and beat["n_tasks"] == 10
        assert beat["time"] <= time.time()
        path.write_text("{torn")
        assert read_heartbeat(path) is None

    def test_status_reflects_run_and_unrun_shards(
        self, synthetic_campaign, tmp_path
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        run_shard(manifests[0])
        status = campaign_status(tmp_path)
        done, pending = status[0], status[1]
        assert done["complete"] and done["folded"] == done["n_tasks"]
        assert done["heartbeat"]["tasks_done"] == done["n_tasks"]
        assert not pending["complete"]
        assert "never ran" in pending["problem"]
        assert pending["heartbeat"] is None

    def test_steal_splits_at_the_durable_watermark(
        self, synthetic_campaign, tmp_path
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        plan = FaultPlan(rules=(
            FaultRule(scope="shard", fault="kill", match=0, after_tasks=2),
        ))
        with pytest.raises(InjectedShardKill):
            run_shard(manifests[0], snapshot_every=1, fault_plan=plan)

        part_a, part_b = steal_shard(tmp_path, 0, force=True)
        assert (part_a.task_start, part_a.task_stop) == (0, 2)
        assert (part_b.task_start, part_b.task_stop) == (2, 3)
        assert part_b.shard_index == 2  # fresh index, fresh artifacts
        assert part_b.checkpoint_path != part_a.checkpoint_path

        run_shard(part_a, resume=True)  # replays its 2-task prefix
        run_shard(part_b)
        run_shard(manifests[1])
        merged = merge_shards(load_manifests(tmp_path))
        assert merged.state_dict() == _reference_state(synthetic_campaign)

    def test_steal_refuses_a_fresh_heartbeat_without_force(
        self, synthetic_campaign, tmp_path
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        from repro.distrib import write_heartbeat

        write_heartbeat(manifests[0].heartbeat_path, 1, 3)
        with pytest.raises(ShardError, match="may still be running"):
            steal_shard(tmp_path, 0, stale_after=3600)
        part_a, part_b = steal_shard(tmp_path, 0, stale_after=3600, force=True)
        assert part_b is not None  # nothing durable: the whole range moves
        assert part_a.task_start == part_a.task_stop

    def test_steal_unknown_shard_and_completed_shard(
        self, synthetic_campaign, tmp_path
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        with pytest.raises(ShardError, match="no shard 9"):
            steal_shard(tmp_path, 9)
        run_shard(manifests[1])
        part_a, part_b = steal_shard(tmp_path, 1, force=True)
        assert part_b is None  # fully folded: nothing to steal
        assert (part_a.task_start, part_a.task_stop) == (3, 6)

    def test_incomplete_merge_error_names_shards_and_resume_command(
        self, synthetic_campaign, tmp_path
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 3)
        run_shard(manifests[0])
        with pytest.raises(ShardError) as excinfo:
            merge_shards(manifests)
        message = str(excinfo.value)
        assert "campaign is incomplete: 2 of 3 shard(s) unfinished" in message
        assert "shard 1 (tasks [2, 4))" in message
        assert "shard 2 (tasks [4, 6))" in message
        assert (
            f"shard run {manifests[1].manifest_path} --resume" in message
        )


# ----------------------------------------------------------------------
# the supervisor, inline backend (synthetic campaigns)
# ----------------------------------------------------------------------

class TestSupervisorInline:
    def _paths(self, manifests):
        return [m.manifest_path for m in manifests]

    def test_killed_shard_is_retried_to_bitwise_completion(
        self, synthetic_campaign, tmp_path, monkeypatch
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        plan = FaultPlan(rules=(
            FaultRule(scope="shard", fault="kill", match=0, after_tasks=1,
                      corrupt_tail=True, times=1),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        supervisor = ShardSupervisor(
            InlineShardExecutor(),
            options=SupervisionOptions(retry=FAST),
        )
        report = supervisor.run(self._paths(manifests))
        assert report.shard_retries == 1
        assert {s["status"] for s in report.shards} == {"done"}
        merged = merge_shards(load_manifests(tmp_path))
        assert merged.state_dict() == _reference_state(synthetic_campaign)

    def test_deterministic_task_failure_quarantines_not_crashes(
        self, synthetic_campaign, tmp_path, monkeypatch
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="fatal", match="0/1", times=99),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        supervisor = ShardSupervisor(
            InlineShardExecutor(retry=FAST),
            options=SupervisionOptions(retry=FAST),
        )
        with pytest.raises(QuarantineError) as excinfo:
            supervisor.run(self._paths(manifests))
        assert [f.task_id for f in excinfo.value.failures] == ["0/1"]
        # the healthy shard completed and is on disk
        assert shard_progress(load_manifests(tmp_path)[1])["complete"]

    def test_exhausted_shard_retries_fail_the_campaign(
        self, synthetic_campaign, tmp_path, monkeypatch
    ):
        manifests = _plan(synthetic_campaign, tmp_path, 2)
        plan = FaultPlan(rules=(
            FaultRule(scope="shard", fault="kill", match=1, after_tasks=0,
                      times=99),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        supervisor = ShardSupervisor(
            InlineShardExecutor(),
            options=SupervisionOptions(
                retry=RetryPolicy(max_attempts=2, backoff=0.0)
            ),
        )
        with pytest.raises(ShardError, match="still failing after 2"):
            supervisor.run(self._paths(manifests))


# ----------------------------------------------------------------------
# the supervisor, preempting backends (real tiny campaigns)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_campaign():
    return dict(
        settings=sample_settings(2, rng=5, k_values=[3]),
        scenario=DEFAULT_SCENARIO,
        methods=("greedy",),
        objectives=("maxmin",),
        n_platforms=2,
        root=seed_sequence_of(5),
    )


@pytest.fixture(scope="module")
def real_reference(real_campaign):
    rows = Solver().sweep(
        real_campaign["settings"],
        scenario=real_campaign["scenario"],
        methods=real_campaign["methods"],
        objectives=real_campaign["objectives"],
        n_platforms=real_campaign["n_platforms"],
        rng=5,
    )
    return SweepAccumulator.from_rows(
        rows,
        methods=real_campaign["methods"],
        objectives=real_campaign["objectives"],
    )


class TestSupervisorPreempting:
    def test_straggler_is_stolen_and_the_merge_stays_bitwise(
        self, real_campaign, real_reference, tmp_path, monkeypatch
    ):
        manifests = _plan(real_campaign, tmp_path, 2)
        plan = FaultPlan(rules=(
            FaultRule(scope="shard", fault="stall", match=1, after_tasks=1,
                      seconds=30.0, times=1),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        supervisor = ShardSupervisor(
            ProcessShardExecutor(jobs=2),
            options=SupervisionOptions(
                retry=FAST,
                straggler_after=0.75,
                min_steal_tasks=1,
                poll_interval=0.05,
            ),
        )
        report = supervisor.run([m.manifest_path for m in manifests])
        assert len(report.steals) == 1
        assert report.steals[0]["victim"] == 1
        merged = merge_shards(load_manifests(tmp_path))
        assert tables_sans_runtime(merged) == tables_sans_runtime(
            real_reference
        )

    def test_shard_timeout_charges_an_attempt_then_resumes(
        self, real_campaign, real_reference, tmp_path, monkeypatch
    ):
        manifests = _plan(real_campaign, tmp_path, 1)
        plan = FaultPlan(rules=(
            FaultRule(scope="shard", fault="stall", match=0, after_tasks=1,
                      seconds=60.0, times=1),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        supervisor = ShardSupervisor(
            ProcessShardExecutor(jobs=1),
            options=SupervisionOptions(retry=FAST, shard_timeout=2.0),
        )
        report = supervisor.run([manifests[0].manifest_path])
        assert report.shard_retries == 1
        merged = merge_shards(load_manifests(tmp_path))
        assert tables_sans_runtime(merged) == tables_sans_runtime(
            real_reference
        )

    def test_subprocess_quarantine_crosses_the_process_boundary(
        self, real_campaign, tmp_path, monkeypatch
    ):
        """A quarantined subprocess shard exits QUARANTINE_EXIT with a
        QUARANTINE-REPORT stderr line; the supervisor must classify it
        deterministic and rebuild the structured failures."""
        manifests = _plan(real_campaign, tmp_path, 1)
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="fatal", match="1/0", times=99),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        supervisor = ShardSupervisor(
            SubprocessShardExecutor(jobs=1, retry=FAST),
            options=SupervisionOptions(retry=FAST),
        )
        with pytest.raises(QuarantineError) as excinfo:
            supervisor.run([manifests[0].manifest_path])
        failures = excinfo.value.failures
        assert [f.task_id for f in failures] == ["1/0"]
        assert "InjectedTaskError" in failures[0].error


# ----------------------------------------------------------------------
# CLI: shard status / shard steal / shard run --retry
# ----------------------------------------------------------------------

class TestCliSupervision:
    def test_status_and_steal_round_trip(
        self, synthetic_campaign, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        manifests = _plan(synthetic_campaign, tmp_path, 2)
        run_shard(manifests[0])
        assert main(["shard", "status", str(tmp_path), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status[0]["complete"] and not status[1]["complete"]

        assert main(["shard", "steal", str(tmp_path), "1"]) == 0
        out = capsys.readouterr().out
        assert "split shard 1" in out and "shard run" in out
        ranges = sorted(
            (m.task_start, m.task_stop) for m in load_manifests(tmp_path)
        )
        assert ranges == [(0, 3), (3, 3), (3, 6)]

        assert main(["shard", "status", str(tmp_path)]) == 0
        table = capsys.readouterr().out
        assert "done" in table and "never ran" in table

    def test_steal_cli_honours_the_liveness_guard(
        self, synthetic_campaign, tmp_path
    ):
        from repro.distrib import write_heartbeat
        from repro.experiments.cli import main

        manifests = _plan(synthetic_campaign, tmp_path, 2)
        write_heartbeat(manifests[1].heartbeat_path, 1, 3)
        with pytest.raises(ShardError, match="may still be running"):
            main([
                "shard", "steal", str(tmp_path), "1",
                "--stale-after", "3600",
            ])

    def test_shard_run_retry_flag_and_quarantine_exit(
        self, real_campaign, tmp_path, monkeypatch, capsys
    ):
        from repro.distrib.supervise import QUARANTINE_REPORT_PREFIX
        from repro.experiments.cli import main

        manifests = _plan(real_campaign, tmp_path, 1)
        plan = FaultPlan(rules=(
            FaultRule(scope="task", fault="fatal", match="0/1", times=99),
        ))
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(tmp_path / "plan.json"))
        )
        code = main([
            "shard", "run", str(manifests[0].manifest_path),
            "--retry", json.dumps(FAST.to_dict()),
        ])
        assert code == QUARANTINE_EXIT
        err = capsys.readouterr().err
        report_line = next(
            line for line in err.splitlines()
            if line.startswith(QUARANTINE_REPORT_PREFIX)
        )
        records = json.loads(report_line[len(QUARANTINE_REPORT_PREFIX):])
        assert [r["task_id"] for r in records] == ["0/1"]
