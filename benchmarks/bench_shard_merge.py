"""E-shard — sharded-campaign merge determinism gate (repro.distrib).

The gate of the sharded orchestration subsystem: one calibrated sweep is
run through every combination of ``shards in {1, 2, 5}`` x executor
backend ``{inline, process, subprocess}``, and each merged aggregate
must be **bitwise-identical** to the serial ``jobs=1`` reference fold —
the runtime table is the one exclusion, because wall clock is the only
value that legitimately differs between separate executions of a real
sweep (the synthetic-row partition property in
``tests/test_distrib_merge.py`` covers the literally-every-byte case).

On top of the grid, the crash gate: shard 0 of a subprocess-backend
campaign is **killed mid-run** (SIGKILL once its checkpoint holds at
least one task record), the campaign is resumed, and the merged result
must again match the reference — per-shard checkpoints + the exactly
associative merge make crash/resume patterns invisible in the output.

Results land in ``BENCH_shard_merge.json`` (repo root); the sweep grows
under ``REPRO_FULL=1``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import Solver, SolverConfig
from repro.distrib import (
    build_shard_manifests,
    manifest_path_for,
    run_sharded_sweep,
    write_manifests,
)
from repro.experiments import sample_settings
from repro.experiments.config import DEFAULT_SCENARIO
from repro.parallel.stream import SweepAccumulator
from repro.util.rng import seed_sequence_of

from benchmarks.conftest import banner, full_scale

_OUT = Path(__file__).resolve().parents[1] / "BENCH_shard_merge.json"

SHARD_COUNTS = (1, 2, 5)
BACKENDS = ("inline", "process", "subprocess")
SEED = 1234


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


def _run_sharded(sweep, n_shards, backend, shard_dir=None, resume=False):
    return run_sharded_sweep(
        sweep["settings"],
        sweep["scenario"],
        sweep["methods"],
        sweep["objectives"],
        sweep["n_platforms"],
        seed_sequence_of(SEED),
        n_shards=n_shards,
        backend=backend,
        shard_dir=shard_dir,
        resume=resume,
    )


def _kill_shard_mid_run(sweep, shard_dir: Path) -> dict:
    """Start shard 0 in its own interpreter, SIGKILL it once its
    checkpoint holds >= 1 task record, and report what happened."""
    import repro

    manifests = build_shard_manifests(
        sweep["settings"], sweep["scenario"], sweep["methods"],
        sweep["objectives"], sweep["n_platforms"], seed_sequence_of(SEED),
        n_shards=2, shard_dir=shard_dir,
    )
    write_manifests(manifests, shard_dir)
    env = os.environ.copy()
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    ckpt = Path(manifests[0].checkpoint_path)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments", "shard", "run",
            str(manifest_path_for(shard_dir, 0)),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    deadline = time.monotonic() + 120.0
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break  # the shard outran us and completed; resume still works
        if ckpt.exists() and ckpt.read_text().count('"kind": "task"') >= 1:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            killed = True
            break
        time.sleep(0.01)
    else:  # pragma: no cover - watchdog
        proc.kill()
        proc.wait()
        raise AssertionError("shard 0 made no checkpoint progress in 120s")
    records = (
        ckpt.read_text().count('"kind": "task"') if ckpt.exists() else 0
    )
    return {
        "killed_mid_run": killed,
        "task_records_at_kill": records,
        "shard_tasks": manifests[0].n_shard_tasks,
    }


def test_shard_merge_bitwise_identical(tmp_path):
    sweep = _sweep_def()
    n_tasks = len(sweep["settings"]) * sweep["n_platforms"]

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
        f"E-shard - sharded campaign merge on {n_tasks} tasks "
        f"({reference.n_rows} rows)",
        "merged aggregates bitwise-identical to the serial fold for any "
        "shard count x backend, incl. kill + resume",
    )
    print(f"serial jobs=1 reference: {serial_seconds:6.2f}s")

    combos = []
    for backend in BACKENDS:
        for n_shards in SHARD_COUNTS:
            t0 = time.perf_counter()
            merged = _run_sharded(sweep, n_shards, backend)
            seconds = time.perf_counter() - t0
            identical = _tables_sans_runtime(merged) == reference_blob
            combos.append(
                {
                    "backend": backend,
                    "shards": n_shards,
                    "seconds": round(seconds, 3),
                    "identical": identical,
                }
            )
            print(
                f"  backend={backend:<10} shards={n_shards}  "
                f"{seconds:6.2f}s  "
                f"{'bitwise-identical' if identical else 'DIVERGED'}"
            )
            assert identical, (
                f"sharded aggregate diverged from the serial reference "
                f"(backend={backend}, shards={n_shards})"
            )

    # --- the crash gate: kill shard 0 mid-run, resume, merge ----------
    shard_dir = tmp_path / "killed-campaign"
    shard_dir.mkdir()
    kill_info = _kill_shard_mid_run(sweep, shard_dir)
    t0 = time.perf_counter()
    resumed = _run_sharded(
        sweep, 2, "subprocess", shard_dir=shard_dir, resume=True
    )
    kill_info["resume_seconds"] = round(time.perf_counter() - t0, 3)
    kill_info["identical"] = _tables_sans_runtime(resumed) == reference_blob
    print(
        f"  kill+resume (subprocess, 2 shards): killed shard 0 at "
        f"{kill_info['task_records_at_kill']}/{kill_info['shard_tasks']} "
        f"tasks (mid-run={kill_info['killed_mid_run']}), resumed in "
        f"{kill_info['resume_seconds']:.2f}s  "
        f"{'bitwise-identical' if kill_info['identical'] else 'DIVERGED'}"
    )
    assert kill_info["identical"], (
        "killed-and-resumed sharded campaign diverged from the serial "
        "reference"
    )

    payload = {
        "benchmark": "shard_merge",
        "full_scale": full_scale(),
        "n_settings": len(sweep["settings"]),
        "n_platforms": sweep["n_platforms"],
        "n_tasks": n_tasks,
        "n_rows": reference.n_rows,
        "serial_seconds": round(serial_seconds, 3),
        "combos": combos,
        "kill_resume": kill_info,
        "all_identical": True,
    }
    _OUT.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"  wrote {_OUT.name}")
