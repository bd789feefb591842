"""E-fault — supervised fault-recovery gate (repro.distrib.supervise).

The robustness gate of the supervision subsystem: one calibrated sweep
is run under three adversarial fault schedules — a transient task-error
storm healed by in-engine retry, a shard kill with a torn checkpoint
tail healed by shard-level retry + resume, and an injected straggler
healed by mid-campaign work stealing — and every recovered aggregate
must match the fault-free serial fold **bitwise** (modulo the runtime
table, the one sanctioned wall-clock difference between executions).
Recovery must also be *bounded*: the retry/steal counts are asserted
exactly, and the wall-clock overhead factor versus the fault-free
supervised run is recorded and loosely capped (recovery may redo a
shard, never the campaign).

Results land in ``BENCH_fault_recovery.json`` (repo root); the sweep
grows under ``REPRO_FULL=1``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import Solver, SolverConfig
from repro.distrib import (
    InlineShardExecutor,
    ProcessShardExecutor,
    ShardSupervisor,
    SupervisionOptions,
    build_shard_manifests,
    load_manifests,
    merge_shards,
    write_manifests,
)
from repro.experiments import sample_settings
from repro.experiments.config import DEFAULT_SCENARIO
from repro.parallel.engine import RetryPolicy
from repro.parallel.stream import SweepAccumulator
from repro.util.faults import FAULT_PLAN_ENV, FaultPlan, FaultRule
from repro.util.rng import seed_sequence_of

from benchmarks.conftest import banner, full_scale

_OUT = Path(__file__).resolve().parents[1] / "BENCH_fault_recovery.json"

SEED = 4321
MAX_OVERHEAD = 30.0  # loose wall-clock cap: a shard may rerun, not the world


def _sweep_def():
    n_settings = 8 if full_scale() else 4
    return dict(
        settings=sample_settings(n_settings, rng=SEED, k_values=[3, 4]),
        scenario=DEFAULT_SCENARIO,
        methods=("greedy", "lprg"),
        objectives=("maxmin", "sum"),
        n_platforms=3 if full_scale() else 2,
    )


def _tables_sans_runtime(agg: SweepAccumulator) -> str:
    tables = agg.tables()
    tables.pop("runtime_mean_by_k")
    return json.dumps(tables, sort_keys=True)


def _supervised_run(sweep, shard_dir, executor, options):
    manifests = build_shard_manifests(
        sweep["settings"], sweep["scenario"], sweep["methods"],
        sweep["objectives"], sweep["n_platforms"], seed_sequence_of(SEED),
        n_shards=2, shard_dir=shard_dir,
    )
    write_manifests(manifests, shard_dir)
    supervisor = ShardSupervisor(executor, options=options)
    t0 = time.perf_counter()
    report = supervisor.run([m.manifest_path for m in manifests])
    seconds = time.perf_counter() - t0
    merged = merge_shards(load_manifests(shard_dir))
    return merged, report, seconds


def test_fault_recovery_is_bitwise_and_bounded(tmp_path, monkeypatch):
    sweep = _sweep_def()
    n_tasks = len(sweep["settings"]) * sweep["n_platforms"]
    fast = RetryPolicy(max_attempts=3, backoff=0.0)

    t0 = time.perf_counter()
    serial_rows = Solver(SolverConfig(jobs=1)).sweep(
        sweep["settings"],
        scenario=sweep["scenario"],
        methods=sweep["methods"],
        objectives=sweep["objectives"],
        n_platforms=sweep["n_platforms"],
        rng=SEED,
    )
    serial_seconds = time.perf_counter() - t0
    reference = SweepAccumulator.from_rows(
        serial_rows, methods=sweep["methods"], objectives=sweep["objectives"]
    )
    reference_blob = _tables_sans_runtime(reference)

    banner(
        f"E-fault - supervised recovery on {n_tasks} tasks "
        f"({reference.n_rows} rows)",
        "injected faults (transient storms, shard kills + torn tails, "
        "stragglers) cost wall-clock only: recovered aggregates are "
        "bitwise-identical to the fault-free serial fold",
    )
    print(f"serial jobs=1 reference: {serial_seconds:6.2f}s")

    # fault-free supervised baseline: the overhead denominator
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    _, _, clean_seconds = _supervised_run(
        sweep, tmp_path / "clean", ProcessShardExecutor(jobs=2),
        SupervisionOptions(retry=fast),
    )
    print(f"fault-free supervised (process x2): {clean_seconds:6.2f}s")

    scenarios = []

    def _run_scenario(name, plan, shard_dir, executor, options):
        monkeypatch.setenv(
            FAULT_PLAN_ENV, str(plan.save(shard_dir / "plan.json"))
        )
        merged, report, seconds = _supervised_run(
            sweep, shard_dir, executor, options
        )
        monkeypatch.delenv(FAULT_PLAN_ENV)
        identical = _tables_sans_runtime(merged) == reference_blob
        overhead = seconds / max(clean_seconds, 1e-9)
        entry = {
            "scenario": name,
            "seconds": round(seconds, 3),
            "overhead_factor": round(overhead, 2),
            "shard_retries": report.shard_retries,
            "steals": len(report.steals),
            "identical": identical,
        }
        scenarios.append(entry)
        print(
            f"  {name:<24} {seconds:6.2f}s  x{overhead:5.2f}  "
            f"retries={report.shard_retries} steals={len(report.steals)}  "
            f"{'bitwise-identical' if identical else 'DIVERGED'}"
        )
        assert identical, f"{name}: recovered aggregate diverged"
        return entry

    # 1. transient task-error storm: every task id has a 50% chance of
    # failing twice; in-engine retry (max_attempts=3) must heal all of
    # it with zero shard-level retries.
    for dir_name in ("storm",):
        entry = _run_scenario(
            "task-error-storm",
            FaultPlan(seed=SEED, rules=(
                FaultRule(scope="task", fault="error", p=0.5, times=2),
            )),
            (tmp_path / dir_name), InlineShardExecutor(retry=fast),
            SupervisionOptions(retry=fast),
        )
        assert entry["shard_retries"] == 0, "storm leaked into shard retries"
        assert entry["steals"] == 0

    # 2. shard kill with a torn checkpoint tail: exactly one shard-level
    # retry, resume replays the durable prefix and recomputes the rest.
    entry = _run_scenario(
        "shard-kill-torn-tail",
        FaultPlan(seed=SEED, rules=(
            FaultRule(scope="shard", fault="kill", match=0, after_tasks=1,
                      corrupt_tail=True, times=1),
        )),
        (tmp_path / "kill"), ProcessShardExecutor(jobs=2),
        SupervisionOptions(retry=fast),
    )
    assert entry["shard_retries"] == 1, "kill must cost exactly one retry"

    # 3. injected straggler: shard 1 stalls 60s after its first task;
    # the supervisor must steal its remainder instead of waiting it out.
    entry = _run_scenario(
        "straggler-steal",
        FaultPlan(seed=SEED, rules=(
            FaultRule(scope="shard", fault="stall", match=1, after_tasks=1,
                      seconds=60.0, times=1),
        )),
        (tmp_path / "straggler"), ProcessShardExecutor(jobs=2),
        SupervisionOptions(retry=fast, straggler_after=1.0,
                           min_steal_tasks=1, poll_interval=0.05),
    )
    assert entry["steals"] == 1, "straggler must be stolen, not waited out"

    worst = max(s["overhead_factor"] for s in scenarios)
    assert worst < MAX_OVERHEAD, (
        f"recovery overhead x{worst} exceeds the x{MAX_OVERHEAD} cap — "
        f"recovery is redoing far more than one shard's work"
    )

    payload = {
        "benchmark": "fault_recovery",
        "full_scale": full_scale(),
        "n_settings": len(sweep["settings"]),
        "n_platforms": sweep["n_platforms"],
        "n_tasks": n_tasks,
        "n_rows": reference.n_rows,
        "serial_seconds": round(serial_seconds, 3),
        "clean_supervised_seconds": round(clean_seconds, 3),
        "scenarios": scenarios,
        "worst_overhead_factor": worst,
        "all_identical": True,
    }
    _OUT.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"  wrote {_OUT.name}")
