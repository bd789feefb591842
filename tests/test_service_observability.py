"""Service observability: ``GET /metrics``, per-job traces, ``/stats``.

Covers the PR-10 introspection surface end to end through the in-process
ASGI client: Prometheus text validity, the metric families the endpoint
must expose (solver pool, coalescer, jobs, LP iterations, request
latency), retained span trees behind ``GET /jobs/{id}/trace``, and the
cumulative thread-safety of the ``/stats`` counters under a concurrent
request storm.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import create_app
from repro.service.testing import AsgiTestClient

SOLVE_BODY = {"scenario": "das2", "seed": 3, "config": {"method": "lprr"}}
SWEEP_BODY = {
    "settings": [
        {"K": 4, "connectivity": 0.5, "heterogeneity": 0.4,
         "mean_g": 250.0, "mean_bw": 30.0, "mean_maxcon": 10.0},
    ],
    "scenario": "calibrated",
    "methods": ["greedy"],
    "objectives": ["maxmin"],
    "n_platforms": 1,
    "seed": 7,
}


@pytest.fixture()
def client():
    app = create_app(max_workers=4)
    yield AsgiTestClient(app)
    app.service.close()


def wait_done(client, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.get(f"/jobs/{job_id}/status").json()["status"]
        if status in ("done", "failed"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?(Inf|[0-9eE.+-]+))$"
)


class TestMetricsEndpoint:
    def test_prometheus_text_is_well_formed(self, client):
        assert client.post("/solve", SOLVE_BODY).status == 200
        response = client.get("/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in response.headers["content-type"]
        typed: set = set()
        for line in response.body.decode().splitlines():
            if line.startswith("# TYPE "):
                name, kind = line.split()[2:4]
                assert kind in ("counter", "gauge", "histogram")
                typed.add(name)
            elif not line.startswith("#"):
                assert SAMPLE_LINE.match(line), line
                family = line.split("{")[0].split(" ")[0]
                family = re.sub(r"_(bucket|sum|count)$", "", family)
                assert family in typed, f"untyped sample {line!r}"

    def test_exposes_pool_coalescer_job_and_lp_families(self, client):
        assert client.post("/solve", SOLVE_BODY).status == 200
        text = client.get("/metrics").body.decode()
        for family in (
            "repro_pool_hits_total",
            "repro_pool_misses_total",
            "repro_pool_size",
            "repro_coalesce_batches_total",
            "repro_coalesce_batch_size",
            "repro_jobs{",
            "repro_solves_total",
            "repro_lp_iterations_total",
            "repro_requests_total",
            "repro_request_seconds_bucket",
        ):
            assert family in text, family

    def test_lp_iterations_accumulate_across_solves(self, client):
        def iterations():
            text = client.get("/metrics").body.decode()
            (line,) = [
                l for l in text.splitlines()
                if l.startswith("repro_lp_iterations_total ")
            ]
            return int(line.split()[1])

        assert client.post("/solve", SOLVE_BODY).status == 200
        first = iterations()
        assert first > 0
        assert client.post("/solve", SOLVE_BODY).status == 200
        assert iterations() == 2 * first  # same instance, warm or not

    def test_job_gauges_reflect_the_store(self, client):
        job = client.post("/sweep", SWEEP_BODY).json()["job"]
        wait_done(client, job["job_id"])
        text = client.get("/metrics").body.decode()
        assert 'repro_jobs{status="done"} 1' in text
        assert 'repro_jobs{status="failed"} 0' in text


class TestJobTraces:
    def test_sweep_job_trace_shows_the_campaign_tree(self, client):
        job = client.post("/sweep", SWEEP_BODY).json()["job"]
        assert wait_done(client, job["job_id"]) == "done"
        response = client.get(f"/jobs/{job['job_id']}/trace")
        assert response.status == 200
        payload = response.json()
        assert payload["job_id"] == job["job_id"]
        (campaign,) = [
            t for t in payload["trace"] if t["name"] == "campaign"
        ]
        assert campaign["duration_seconds"] > 0
        assert [c["name"] for c in campaign["children"]] == ["task"]

    def test_async_solve_trace(self, client):
        body = dict(SOLVE_BODY, **{"async": True, "coalesce": False})
        _, payload = ("job", client.post("/solve", body).json()["job"])
        wait_done(client, payload["job_id"])
        trace = client.get(f"/jobs/{payload['job_id']}/trace").json()
        (root,) = trace["trace"]
        assert root["name"] == "solve"
        child_names = {c["name"] for c in root.get("children", ())}
        assert "lp_build" in child_names

    def test_unknown_job_404s(self, client):
        assert client.get("/jobs/nope/trace").status == 404

    def test_untraced_job_404s_with_reason(self, client):
        job = client.post(
            "/sweep", dict(SWEEP_BODY, hold=True)
        ).json()["job"]
        response = client.get(f"/jobs/{job['job_id']}/trace")
        assert response.status == 404
        assert "no retained trace" in response.json()["error"]


class TestStatsUnderConcurrency:
    def test_counters_are_cumulative_and_consistent(self, client):
        """Satellite (c): hammer /solve from many threads, then check
        the /stats counters add up exactly — no lost updates."""
        n_requests = 24

        def solve(i):
            body = dict(SOLVE_BODY, seed=i % 3)
            response = client.post("/solve", body)
            assert response.status == 200

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(solve, range(n_requests)))

        stats = client.get("/stats").json()
        pool_stats = stats["pool"]
        coalescer = stats["coalescer"]
        assert pool_stats["pool_hits"] + pool_stats["pool_misses"] >= n_requests
        assert pool_stats["pool_misses"] >= 1
        # every request travelled in exactly one coalesced batch
        assert coalescer["coalesced_requests"] == n_requests
        assert 1 <= coalescer["batches"] <= n_requests
        assert coalescer["largest_batch"] >= 1
        assert stats["uptime"] > 0
        # /metrics agrees with /stats (same registry, no parallel books)
        text = client.get("/metrics").body.decode()
        assert (
            f"repro_coalesce_requests_total {coalescer['coalesced_requests']}"
            in text
        )
        assert f"repro_pool_hits_total {pool_stats['pool_hits']}" in text
