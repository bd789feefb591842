"""Service-layer regression gates: warm reuse, load, stream fidelity.

The service's pitch is a *resident* solver: state that PR-4 taught one
process to reuse across calls is now reused across HTTP requests. Three
gates, each a claim the README makes about ``repro.service``:

* **warm reuse** — a storm of same-platform ``POST /solve`` requests
  must hit the resident pool (and its LP template cache) on >= 95% of
  requests, and costs exactly one HiGHS solve: every later request's
  relaxation is a hit in the solver's memo of HiGHS optima; the
  responses stay bitwise-identical to the cold reference;
* **load** — >= 1000 sweep jobs held in-flight concurrently, then all
  released, all running to ``done`` (none failed, none lost);
* **stream fidelity** — rows streamed over ``/jobs/{id}/stream`` fold
  client-side into bitwise the aggregate of the serial ``jobs=1``
  reference sweep (runtime columns excluded — wall clocks are the one
  sanctioned cross-run difference).

Everything runs through the in-process ASGI client (no sockets), so the
numbers measure the service's locks and queues, not TCP. Results land
in ``BENCH_service.json`` (repo root).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.api import Solver, SolverConfig, build_scenario
from repro.experiments.config import Setting
from repro.experiments.persistence import row_from_dict
from repro.parallel.stream import SweepAccumulator
from repro.service import TERMINAL_STATUSES, create_app
from repro.service.testing import AsgiTestClient

from benchmarks.conftest import banner, full_scale

#: minimum fraction of storm requests served by an already-warm solver
MIN_WARM_HIT_RATE = 0.95
#: minimum sweep jobs simultaneously in flight during the load gate
MIN_CONCURRENT_JOBS = 1000

_OUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"

_RESULTS: "dict[str, object]" = {}

_TINY_SETTING = {
    "K": 4, "connectivity": 0.5, "heterogeneity": 0.4,
    "mean_g": 250.0, "mean_bw": 30.0, "mean_maxcon": 10.0,
}


def _tables_sans_runtime(tables: dict) -> str:
    out = dict(tables)
    out.pop("runtime_mean_by_k")
    return json.dumps(out, sort_keys=True)


# ----------------------------------------------------------------------
# gate 1: warm-reuse hit rate on a same-fingerprint request storm
# ----------------------------------------------------------------------
def test_warm_reuse_storm():
    n_requests = 400 if full_scale() else 200
    n_threads = 16
    body = {"scenario": "das2", "seed": 0, "scenario_seed": 7,
            "config": {"method": "lprg"}}

    banner(
        "service warm reuse: same-platform solve storm",
        "resident pool serves repeat fingerprints from warm solvers",
    )

    app = create_app(max_workers=8)
    client = AsgiTestClient(app)
    try:
        reference = client.post("/solve", body).json()["report"]

        def one(i: int):
            request = dict(body, seed=i % 25)
            response = client.post("/solve", request)
            assert response.status == 200
            return response.json()["report"]

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            reports = list(pool.map(one, range(n_requests)))
        elapsed = time.perf_counter() - start

        # bitwise spot-check: every seed-0 response equals the cold one
        for report in (r for i, r in enumerate(reports) if i % 25 == 0):
            assert report["value"] == reference["value"]
            assert report["allocation"] == reference["allocation"]

        stats = client.get("/stats").json()
        pool_stats = stats["pool"]
        total = pool_stats["pool_hits"] + pool_stats["pool_misses"]
        hit_rate = pool_stats["pool_hits"] / total
        totals = pool_stats["solver_totals"]
        builds = totals["cold_builds"] + totals["build_hits"]
        build_hit_rate = totals["build_hits"] / builds if builds else 0.0

        print(f"requests:        {n_requests + 1} over {n_threads} threads "
              f"({elapsed:.2f}s, {n_requests / elapsed:.0f} req/s)")
        print(f"pool:            {pool_stats['pool_hits']} hits / "
              f"{pool_stats['pool_misses']} misses "
              f"({100 * hit_rate:.1f}% warm)")
        print(f"LP builds:       {totals['build_hits']} template hits / "
              f"{totals['cold_builds']} cold "
              f"({100 * build_hit_rate:.1f}% warm)")
        print(f"HiGHS memo:      {totals['solution_hits']} hits / "
              f"{n_requests + 1} LPRG relaxations")
        print(f"coalescer:       {stats['coalescer']['batches']} batches for "
              f"{stats['coalescer']['coalesced_requests']} requests "
              f"(largest {stats['coalescer']['largest_batch']})")

        assert hit_rate >= MIN_WARM_HIT_RATE, (
            f"pool hit rate {hit_rate:.1%} under the "
            f"{MIN_WARM_HIT_RATE:.0%} gate"
        )
        assert build_hit_rate >= MIN_WARM_HIT_RATE, (
            f"LP build hit rate {build_hit_rate:.1%} under the "
            f"{MIN_WARM_HIT_RATE:.0%} gate"
        )
        # work count: the cold reference solved the one relaxation; each
        # storm request's LPRG relaxation is the same LP, a memo hit
        assert totals["solution_hits"] == n_requests, (
            f"{totals['solution_hits']} HiGHS memo hits for {n_requests} "
            "repeat requests: some re-solved an LP already solved"
        )

        _RESULTS["warm_reuse"] = {
            "n_requests": n_requests + 1,
            "threads": n_threads,
            "seconds": elapsed,
            "requests_per_second": n_requests / elapsed,
            "pool_hit_rate": hit_rate,
            "lp_build_hit_rate": build_hit_rate,
            "solution_hits": totals["solution_hits"],
            "batches": stats["coalescer"]["batches"],
            "pool": pool_stats,
            "coalescer": stats["coalescer"],
            "gate_min_hit_rate": MIN_WARM_HIT_RATE,
        }
    finally:
        app.service.close()


# ----------------------------------------------------------------------
# gate 2: >= 1000 sweep jobs concurrently in flight, all completing
# ----------------------------------------------------------------------
def test_thousand_concurrent_sweep_jobs():
    n_jobs = 1500 if full_scale() else MIN_CONCURRENT_JOBS
    body = {
        "settings": [_TINY_SETTING],
        "methods": ["greedy"],
        "objectives": ["maxmin"],
        "n_platforms": 1,
        "seed": 5,
        "hold": True,
    }

    banner(
        "service load: held sweep-job flood, release, drain",
        ">= 1000 jobs in flight at once; every one runs to done",
    )

    app = create_app(max_workers=8)
    client = AsgiTestClient(app)
    try:
        submit_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=16) as pool:
            job_ids = list(
                pool.map(
                    lambda i: client.post(
                        "/sweep", dict(body, seed=i)
                    ).json()["job"]["job_id"],
                    range(n_jobs),
                )
            )
        submit_elapsed = time.perf_counter() - submit_start

        assert len(set(job_ids)) == n_jobs  # no id collisions under threads
        records = app.service.jobs.list_jobs()
        peak_in_flight = sum(
            1 for r in records if r.status not in TERMINAL_STATUSES
        )
        assert peak_in_flight >= MIN_CONCURRENT_JOBS, (
            f"only {peak_in_flight} jobs in flight; the gate needs "
            f">= {MIN_CONCURRENT_JOBS}"
        )

        release_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=16) as pool:
            statuses = list(
                pool.map(
                    lambda job_id: client.post(
                        f"/jobs/{job_id}/start"
                    ).status,
                    job_ids,
                )
            )
        assert all(status == 200 for status in statuses)

        deadline = time.time() + 600
        while time.time() < deadline:
            records = app.service.jobs.list_jobs()
            done = sum(1 for r in records if r.status == "done")
            failed = [r for r in records if r.status in
                      ("failed", "cancelled", "interrupted")]
            assert not failed, (
                f"{len(failed)} jobs failed, first: {failed[0].error}"
            )
            if done == n_jobs:
                break
            time.sleep(0.2)
        drain_elapsed = time.perf_counter() - release_start
        assert done == n_jobs, f"only {done}/{n_jobs} jobs completed"

        # determinism spot-check: equal seeds gave identical aggregates
        first = client.get(f"/jobs/{job_ids[0]}/result").json()["result"]
        again = client.post(
            "/sweep", dict(body, seed=0, hold=False)
        ).json()["job"]["job_id"]
        while client.get(f"/jobs/{again}/status").json()["status"] != "done":
            time.sleep(0.05)
        rerun = client.get(f"/jobs/{again}/result").json()["result"]
        assert _tables_sans_runtime(first["tables"]) == _tables_sans_runtime(
            rerun["tables"]
        )

        print(f"jobs:            {n_jobs} submitted in {submit_elapsed:.2f}s "
              f"({n_jobs / submit_elapsed:.0f} jobs/s)")
        print(f"peak in flight:  {peak_in_flight}")
        print(f"drain:           all done in {drain_elapsed:.2f}s "
              f"({n_jobs / drain_elapsed:.0f} jobs/s)")

        _RESULTS["load"] = {
            "n_jobs": n_jobs,
            "peak_in_flight": peak_in_flight,
            "submit_seconds": submit_elapsed,
            "drain_seconds": drain_elapsed,
            "all_done": True,
            "gate_min_concurrent": MIN_CONCURRENT_JOBS,
        }
    finally:
        app.service.close()


# ----------------------------------------------------------------------
# gate 3: streamed rows fold bitwise into the serial reference
# ----------------------------------------------------------------------
def test_streamed_fold_matches_serial_reference():
    settings = [
        dict(_TINY_SETTING, K=k) for k in ((4, 6, 8) if full_scale() else (4, 6))
    ]
    methods = ["greedy", "lprg"]
    objectives = ["maxmin"]
    n_platforms = 2
    seed = 42

    banner(
        "service stream fidelity: client-side fold == serial fold",
        "SSE rows arrive complete, ordered, and fold bitwise",
    )

    app = create_app(max_workers=4)
    client = AsgiTestClient(app)
    try:
        job = client.post(
            "/sweep",
            {"settings": settings, "methods": methods,
             "objectives": objectives, "n_platforms": n_platforms,
             "seed": seed, "hold": True},
        ).json()["job"]
        handle = client.stream(f"/jobs/{job['job_id']}/stream")
        events = handle.iter_events(timeout=300)
        assert next(events)[0] == "status"  # subscription confirmed
        assert client.post(f"/jobs/{job['job_id']}/start").status == 200

        streamed: "list[dict]" = []
        for name, data in events:
            if name == "rows":
                streamed.extend(data["rows"])
            elif name in ("done", "failed"):
                assert name == "done", data
                break

        reference_rows = Solver(SolverConfig(method="greedy")).sweep(
            [
                Setting(
                    k=int(s["K"]), connectivity=s["connectivity"],
                    heterogeneity=s["heterogeneity"], mean_g=s["mean_g"],
                    mean_bw=s["mean_bw"], mean_maxcon=s["mean_maxcon"],
                )
                for s in settings
            ],
            scenario="calibrated",
            methods=methods,
            objectives=objectives,
            n_platforms=n_platforms,
            rng=seed,
        )
        assert len(streamed) == len(reference_rows)

        folded = SweepAccumulator.from_rows(
            [row_from_dict(r) for r in streamed],
            methods=methods, objectives=objectives,
        )
        reference = SweepAccumulator.from_rows(
            reference_rows, methods=methods, objectives=objectives
        )
        client_fold = _tables_sans_runtime(folded.tables())
        serial_fold = _tables_sans_runtime(reference.tables())
        assert client_fold == serial_fold, (
            "client-side fold of streamed rows diverged from the serial "
            "jobs=1 reference fold"
        )
        server_tables = client.get(
            f"/jobs/{job['job_id']}/result"
        ).json()["result"]["tables"]
        assert _tables_sans_runtime(server_tables) == serial_fold

        print(f"rows streamed:   {len(streamed)} "
              f"({len(settings)}x{n_platforms} tasks)")
        print("bitwise folds:   client == server == serial reference")

        _RESULTS["stream_fidelity"] = {
            "rows_streamed": len(streamed),
            "n_tasks": len(settings) * n_platforms,
            "bitwise_identical": True,
        }
    finally:
        app.service.close()

    _RESULTS["full_scale"] = full_scale()
    _OUT.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    print(f"\nwrote {_OUT.name}")
