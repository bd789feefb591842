"""End-to-end service tests through the in-process ASGI client.

The two headline contracts:

* ``POST /solve`` responses are bitwise the facade reference
  ``Solver(cfg).solve(build_scenario(name, obj, rng=default_rng(s)),
  rng=seed)`` — independent of pooling and coalescing;
* a held sweep job streamed over ``/jobs/{id}/stream`` delivers every
  row of the campaign in task-index order, and the client-side fold of
  those rows reproduces the server's aggregate (and the serial
  ``jobs=1`` reference) on every runtime-free table.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Solver, SolverConfig, build_scenario
from repro.experiments.config import Setting
from repro.experiments.persistence import row_from_dict, row_to_dict
from repro.parallel.stream import SweepAccumulator
from repro.service import SolverService, create_app
from repro.service.testing import AsgiTestClient

SWEEP_SETTINGS = [
    {"K": 4, "connectivity": 0.5, "heterogeneity": 0.4,
     "mean_g": 250.0, "mean_bw": 30.0, "mean_maxcon": 10.0},
]
SWEEP_BODY = {
    "settings": SWEEP_SETTINGS,
    "scenario": "calibrated",
    "methods": ["greedy", "lprg"],
    "objectives": ["maxmin"],
    "n_platforms": 2,
    "seed": 7,
}


@pytest.fixture()
def client():
    app = create_app(max_workers=4)
    yield AsgiTestClient(app)
    app.service.close()


def _tables_sans_runtime(tables: dict) -> str:
    out = dict(tables)
    out.pop("runtime_mean_by_k")
    return json.dumps(out, sort_keys=True)


def _drain_stream(client, job_id, start=False):
    handle = client.stream(f"/jobs/{job_id}/stream")
    events = handle.iter_events(timeout=120)
    name, data = next(events)
    assert name == "status"
    if start:
        started = client.post(f"/jobs/{job_id}/start")
        assert started.status == 200
    seen = [(name, data)]
    for name, data in events:
        seen.append((name, data))
        if name in ("done", "failed", "cancelled", "interrupted"):
            break
    return seen


# ----------------------------------------------------------------------
# discovery + basics
# ----------------------------------------------------------------------
def test_health_methods_scenarios(client):
    assert client.get("/healthz").json() == {"status": "ok"}
    assert "greedy" in client.get("/methods").json()["methods"]
    names = [s["name"] for s in client.get("/scenarios").json()["scenarios"]]
    assert "das2" in names and "calibrated" in names


def test_unknown_route_and_wrong_method(client):
    assert client.get("/nope").status == 404
    assert client.post("/healthz").status == 405


def test_invalid_json_body(client):
    response = client.request("POST", "/solve", json_body=None)
    assert response.status == 400  # missing scenario

    # raw broken bytes
    import asyncio

    scope = client._scope("POST", "/solve")
    received = {}

    async def run():
        messages = [
            {"type": "http.request", "body": b"{nope", "more_body": False}
        ]

        async def receive():
            return messages.pop(0) if messages else {"type": "http.disconnect"}

        async def send(message):
            if message["type"] == "http.response.start":
                received["status"] = message["status"]

        await client.app(scope, receive, send)

    asyncio.run(run())
    assert received["status"] == 400


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
def test_solve_matches_facade_reference_bitwise(client):
    body = {"scenario": "das2", "seed": 5, "scenario_seed": 9,
            "config": {"method": "greedy"}}
    report = client.post("/solve", body).json()["report"]

    problem = build_scenario("das2", "maxmin", rng=np.random.default_rng(9))
    reference = Solver(SolverConfig(method="greedy")).solve(problem, rng=5)
    assert report["value"] == reference.value
    assert report["n_lp_solves"] == reference.n_lp_solves
    assert np.array_equal(
        np.asarray(report["allocation"]["alpha"]), reference.allocation.alpha
    )
    assert np.array_equal(
        np.asarray(report["allocation"]["beta"]), reference.allocation.beta
    )
    assert report["config"]["method"] == "greedy"


def test_solve_is_deterministic_across_requests(client):
    body = {"scenario": "table1-small", "seed": 3, "scenario_seed": 3,
            "config": {"method": "greedy"}}
    first = client.post("/solve", body).json()["report"]
    second = client.post("/solve", body).json()["report"]
    assert first["value"] == second["value"]
    assert first["allocation"] == second["allocation"]


def test_solve_warms_the_pool(client):
    body = {"scenario": "das2", "seed": 1, "config": {"method": "greedy"}}
    client.post("/solve", body)
    client.post("/solve", body)
    pool = client.get("/stats").json()["pool"]
    assert pool["pool_misses"] == 1
    assert pool["pool_hits"] >= 1
    assert pool["solver_totals"]["n_solves"] == 2  # one warm solver did both


def test_solve_validation_errors(client):
    assert client.post("/solve", {}).status == 400
    assert client.post("/solve", {"scenario": "not-a-scenario"}).status == 400
    assert (
        client.post(
            "/solve", {"scenario": "das2", "config": {"shards": 2}}
        ).status
        == 400
    )
    assert (
        client.post("/solve", {"scenario": "calibrated"}).status == 400
    )  # sweep scenario on the solve endpoint


def test_async_solve_job(client):
    body = {"scenario": "das2", "seed": 2, "config": {"method": "greedy"},
            "async": True}
    response = client.post("/solve", body)
    assert response.status == 202
    job_id = response.json()["job"]["job_id"]
    events = _drain_stream(client, job_id)
    assert events[-1][0] == "done"
    result = client.get(f"/jobs/{job_id}/result").json()["result"]
    reference = client.post(
        "/solve", {**body, "async": False}
    ).json()["report"]
    assert result["report"]["value"] == reference["value"]
    assert result["report"]["allocation"] == reference["allocation"]


# ----------------------------------------------------------------------
# sweep jobs
# ----------------------------------------------------------------------
def test_sweep_job_runs_to_done_with_progress(client):
    job = client.post("/sweep", SWEEP_BODY).json()["job"]
    events = _drain_stream(client, job["job_id"])
    assert events[-1][0] == "done"
    status = client.get(f"/jobs/{job['job_id']}/status").json()
    assert status["status"] == "done"
    assert status["progress"] == {"done": 2, "total": 2}
    listed = client.get("/jobs").json()["jobs"]
    assert any(j["job_id"] == job["job_id"] for j in listed)


def test_sweep_result_gated_until_done(client):
    job = client.post(
        "/sweep", {**SWEEP_BODY, "hold": True}
    ).json()["job"]
    assert job["status"] == "held"
    assert client.get(f"/jobs/{job['job_id']}/result").status == 409
    _drain_stream(client, job["job_id"], start=True)
    assert client.get(f"/jobs/{job['job_id']}/result").status == 200


def test_held_stream_delivers_every_row_matching_serial_reference(client):
    """The guaranteed-complete recipe + the bitwise fold contract."""
    job = client.post("/sweep", {**SWEEP_BODY, "hold": True}).json()["job"]
    events = _drain_stream(client, job["job_id"], start=True)
    assert events[-1][0] == "done"
    streamed = [
        row
        for name, data in events
        if name == "rows"
        for row in data["rows"]
    ]

    settings = [
        Setting(
            k=int(s["K"]), connectivity=s["connectivity"],
            heterogeneity=s["heterogeneity"], mean_g=s["mean_g"],
            mean_bw=s["mean_bw"], mean_maxcon=s["mean_maxcon"],
        )
        for s in SWEEP_SETTINGS
    ]
    reference = Solver(SolverConfig(method="lprg")).sweep(
        settings,
        scenario="calibrated",
        methods=SWEEP_BODY["methods"],
        objectives=SWEEP_BODY["objectives"],
        n_platforms=SWEEP_BODY["n_platforms"],
        rng=SWEEP_BODY["seed"],
    )
    assert len(streamed) == len(reference)
    for streamed_row, reference_row in zip(streamed, reference):
        expected = row_to_dict(reference_row)
        for key, value in expected.items():
            if key == "runtime":
                continue  # wall clocks are not deterministic
            assert streamed_row[key] == value

    # client-side fold of the streamed rows == the server's aggregate
    folded = SweepAccumulator.from_rows(
        [row_from_dict(r) for r in streamed],
        methods=SWEEP_BODY["methods"],
        objectives=SWEEP_BODY["objectives"],
    )
    server_tables = client.get(
        f"/jobs/{job['job_id']}/result"
    ).json()["result"]["tables"]
    assert _tables_sans_runtime(folded.tables()) == _tables_sans_runtime(
        server_tables
    )


def test_sweep_sampled_settings_and_ndjson_stream(client):
    job = client.post(
        "/sweep",
        {"n_settings": 2, "k_values": [4], "settings_seed": 1, "seed": 11,
         "methods": ["greedy"], "objectives": ["maxmin"], "n_platforms": 1,
         "hold": True},
    ).json()["job"]
    handle = client.stream(f"/jobs/{job['job_id']}/stream?format=ndjson")
    events = handle.iter_ndjson(timeout=120)
    first = next(events)
    assert first["event"] == "status"
    client.post(f"/jobs/{job['job_id']}/start")
    names = [first["event"]]
    rows = 0
    for event in events:
        names.append(event["event"])
        rows += len(event.get("rows", []))
        if event["event"] in ("done", "failed"):
            break
    assert names[-1] == "done"
    assert rows == 2 * 2  # 2 tasks x (lp bound + greedy)


def test_stream_of_finished_job_emits_synthetic_terminal(client):
    job = client.post("/sweep", SWEEP_BODY).json()["job"]
    _drain_stream(client, job["job_id"])  # run to completion
    events = _drain_stream(client, job["job_id"])  # re-stream afterwards
    assert events[0][1]["status"] == "done"
    assert events[-1][0] == "done"


def test_sweep_validation_errors(client):
    assert client.post("/sweep", {}).status == 400
    assert client.post("/sweep", {"settings": []}).status == 400
    assert (
        client.post(
            "/sweep", {**SWEEP_BODY, "config": {"shards": 2}}
        ).status
        == 400
    )
    assert (
        client.post("/sweep", {**SWEEP_BODY, "scenario": "das2"}).status
        == 400
    )  # platform scenario on the sweep endpoint
    bad_setting = client.post(
        "/sweep", {**SWEEP_BODY, "settings": [{"K": 4}]}
    )
    assert bad_setting.status == 400


SAMPLED_BODY = {
    "n_settings": 1, "k_values": [4], "settings_seed": 0,
    "methods": ["greedy"], "objectives": ["maxmin"], "n_platforms": 1,
    "seed": 7, "hold": True,
}


@pytest.mark.parametrize(
    "route, body, field",
    [
        ("/solve", {"scenario": "das2", "seed": "abc"}, "seed"),
        ("/solve", {"scenario": "das2", "scenario_seed": "x"}, "scenario_seed"),
        ("/sweep", {**SWEEP_BODY, "settings": [
            dict(SWEEP_SETTINGS[0], connectivity="x")]}, "connectivity"),
        ("/sweep", {**SWEEP_BODY, "settings": [
            dict(SWEEP_SETTINGS[0], K="four")]}, "K"),
        ("/sweep", {**SWEEP_BODY, "settings": [5]}, "settings"),
        ("/sweep", {**SWEEP_BODY, "settings": [{"K": 4}]}, "connectivity"),
        ("/sweep", {**SWEEP_BODY, "scenario": {"speeed": 100.0}}, "speeed"),
        ("/sweep", {**SAMPLED_BODY, "n_settings": "two"}, "n_settings"),
        ("/sweep", {**SAMPLED_BODY, "settings_seed": "s"}, "settings_seed"),
        ("/sweep", {**SAMPLED_BODY, "settings_seed": -1}, "settings_seed"),
        ("/sweep", {**SAMPLED_BODY, "k_values": [4, "five"]}, "k_values"),
        ("/sweep", {**SWEEP_BODY, "seed": "x"}, "seed"),
        # a JSON "false" is truthy and "2" is no count: neither may
        # switch a flag on or reach a comparison that names no field
        ("/solve", {"scenario": "das2", "config": {
            "method": "lprr", "warm_start": "false"}}, "warm_start"),
        ("/solve", {"scenario": "das2", "config": {"resume": "false"}}, "resume"),
        ("/solve", {"scenario": "das2", "config": {"stream": "false"}}, "stream"),
        ("/solve", {"scenario": "das2", "config": {"jobs": "2"}}, "jobs"),
        ("/solve", {"scenario": "das2", "config": {"chunk_size": "2"}},
         "chunk_size"),
        ("/sweep", {**SWEEP_BODY, "config": {"shards": "2"}}, "shards"),
        ("/solve", {"scenario": "das2", "config": {
            "retry": {"quarantine": "false"}}}, "quarantine"),
        ("/solve", {"scenario": "das2", "async": "false"}, "async"),
        ("/solve", {"scenario": "das2", "coalesce": "false"}, "coalesce"),
        ("/sweep", {**SWEEP_BODY, "hold": "false"}, "hold"),
        ("/sweep", {**SWEEP_BODY, "scenario": {
            "apply_speed_heterogeneity": "false"}}, "apply_speed_heterogeneity"),
    ],
    ids=[
        "solve-seed", "solve-scenario_seed", "setting-connectivity",
        "setting-K", "setting-not-an-object", "setting-missing-key",
        "scenario-unknown-key", "n_settings", "settings_seed",
        "settings_seed-negative",
        "k_values-entry", "sweep-seed",
        "config-warm_start", "config-resume", "config-stream", "config-jobs",
        "config-chunk_size", "config-shards", "config-retry-quarantine",
        "solve-async", "solve-coalesce", "sweep-hold",
        "scenario-apply_speed_heterogeneity",
    ],
)
def test_malformed_input_is_a_client_error_naming_its_field(
    client, route, body, field
):
    response = client.post(route, body)
    assert response.status == 400
    assert repr(field) in response.json()["error"]


@pytest.mark.parametrize("route", ["/solve", "/sweep"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"method": "bogus"}, "unknown method"),
        ({"jobs": 0}, "jobs must be >= 1"),
        ({"jobs": "two"}, "invalid config"),
        ({"lp_backend": "x"}, "lp_backend must be one of"),
        ({"job": 2}, "did you mean 'jobs'"),
        ({"lp_engine": "revised"}, "'lp_engine' was removed"),
    ],
)
def test_invalid_config_is_a_client_error(client, route, config, message):
    body = SWEEP_BODY if route == "/sweep" else {"scenario": "das2"}
    response = client.post(route, {**body, "config": config})
    assert response.status == 400
    assert message in response.json()["error"]


def test_start_rejects_non_held_jobs(client):
    job = client.post("/sweep", SWEEP_BODY).json()["job"]
    _drain_stream(client, job["job_id"])
    assert client.post(f"/jobs/{job['job_id']}/start").status == 409


def test_job_endpoints_404(client):
    assert client.get("/jobs/nope/status").status == 404
    assert client.get("/jobs/nope/result").status == 404
    assert client.post("/jobs/nope/start").status == 404
    assert client.post("/jobs/nope/restart").status == 404
    assert client.stream("/jobs/nope/stream").status == 404


def test_restart_rejects_non_terminal_jobs(client):
    job = client.post("/sweep", {**SWEEP_BODY, "hold": True}).json()["job"]
    response = client.post(f"/jobs/{job['job_id']}/restart")
    assert response.status == 409  # held: still owned by a live worker


def test_restart_terminal_job_resubmits_as_new_job(client):
    job = client.post("/sweep", SWEEP_BODY).json()["job"]
    _drain_stream(client, job["job_id"])
    response = client.post(f"/jobs/{job['job_id']}/restart")
    assert response.status == 202
    new = response.json()["job"]
    assert new["job_id"] != job["job_id"]
    assert new["restarted_from"] == job["job_id"]
    events = _drain_stream(client, new["job_id"])
    assert events[-1][0] == "done"
    # Same journaled request, same seed: runtime-free tables are bitwise.
    first = client.get(f"/jobs/{job['job_id']}/result").json()["result"]
    second = client.get(f"/jobs/{new['job_id']}/result").json()["result"]
    assert _tables_sans_runtime(first["tables"]) == _tables_sans_runtime(
        second["tables"]
    )


def test_restart_recovers_interrupted_job_after_journal_replay(tmp_path):
    from repro.service.jobstore import JobRecord

    journal = tmp_path / "jobs.jsonl"
    # A journal whose last line shows the job mid-flight: the process
    # died before any terminal transition was appended.
    record = JobRecord(
        "sweep-000007", kind="sweep", status="running", request=SWEEP_BODY
    )
    journal.write_text(json.dumps(record.to_dict()) + "\n", encoding="utf-8")

    app = create_app(job_store=str(journal), max_workers=2)
    client = AsgiTestClient(app)
    try:
        status = client.get("/jobs/sweep-000007/status").json()
        assert status["status"] == "interrupted"
        # Interrupted jobs never resume implicitly...
        assert client.get("/jobs/sweep-000007/result").status == 409
        # ...recovery is the explicit restart, from the journaled request.
        new = client.post("/jobs/sweep-000007/restart").json()["job"]
        assert new["restarted_from"] == "sweep-000007"
        assert new["job_id"] != "sweep-000007"
        events = _drain_stream(client, new["job_id"])
        assert events[-1][0] == "done"
        result = client.get(f"/jobs/{new['job_id']}/result").json()["result"]
        assert "tables" in result
    finally:
        app.service.close()


def test_failed_sweep_reports_failure(client, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where a directory would be needed
    job = client.post(
        "/sweep",
        {**SWEEP_BODY, "methods": ["greedy"], "objectives": ["maxmin"],
         "config": {"row_sink": str(blocker / "rows.jsonl")}},
    ).json()["job"]
    events = _drain_stream(client, job["job_id"])
    assert events[-1][0] == "failed"
    status = client.get(f"/jobs/{job['job_id']}/status").json()
    assert status["status"] == "failed"
    assert status["error"]
    assert client.get(f"/jobs/{job['job_id']}/result").status == 409


# ----------------------------------------------------------------------
# persistence integration
# ----------------------------------------------------------------------
def test_jsonl_job_store_survives_service_restart(tmp_path):
    journal = tmp_path / "jobs.jsonl"
    app = create_app(job_store=str(journal), max_workers=2)
    client = AsgiTestClient(app)
    job = client.post("/sweep", SWEEP_BODY).json()["job"]
    events = _drain_stream(client, job["job_id"])
    assert events[-1][0] == "done"
    app.service.close()

    app2 = create_app(job_store=str(journal), max_workers=2)
    client2 = AsgiTestClient(app2)
    status = client2.get(f"/jobs/{job['job_id']}/status").json()
    assert status["status"] == "done"
    result = client2.get(f"/jobs/{job['job_id']}/result").json()["result"]
    assert "tables" in result
    # new jobs continue the id sequence instead of colliding
    job2 = client2.post("/sweep", {**SWEEP_BODY, "hold": True}).json()["job"]
    assert job2["job_id"] != job["job_id"]
    app2.service.close()


def test_service_close_is_idempotent_and_rejects_new_work():
    service = SolverService(max_workers=1)
    service.close()
    service.close()
    client = AsgiTestClient(create_app(service))
    assert client.post("/solve", {"scenario": "das2"}).status == 503
