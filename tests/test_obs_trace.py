"""Structured tracing: span trees, the ambient tracer, JSONL sinks."""

import json
import threading

import pytest

from repro.obs.trace import (
    NOOP_TRACER,
    JsonlTraceSink,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestSpans:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("solve", method="lprr"):
            with tracer.span("lp_build") as build:
                build.set(cache_hit=False)
            with tracer.span("session_resolve", warm=True):
                pass
        (root,) = tracer.to_dicts()
        assert root["name"] == "solve"
        assert root["attrs"] == {"method": "lprr"}
        assert [c["name"] for c in root["children"]] == [
            "lp_build", "session_resolve",
        ]
        assert root["children"][0]["attrs"] == {"cache_hit": False}

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (root,) = tracer.to_dicts()
        inner = root["children"][0]
        assert root["duration_seconds"] >= inner["duration_seconds"] >= 0.0

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("solve"):
                raise ValueError("boom")
        (root,) = tracer.to_dicts()
        assert root["attrs"]["error"] == "ValueError"

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [t["name"] for t in tracer.to_dicts()] == ["a", "b"]

    def test_drain_clears_finished_trees(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert [t["name"] for t in tracer.drain()] == ["a"]
        assert tracer.drain() == []

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()
            with tracer.span(name):
                barrier.wait()  # both spans open concurrently

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.to_dicts()
        # concurrent spans in different threads are siblings, not nested
        assert sorted(t["name"] for t in roots) == ["t0", "t1"]
        assert all("children" not in t for t in roots)


class TestAmbientTracer:
    def test_default_is_the_shared_noop(self):
        assert current_tracer() is NOOP_TRACER
        assert not NOOP_TRACER.enabled

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NOOP_TRACER

    def test_outer_tracer_wins(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                with current_tracer().span("work"):
                    pass
        assert [t["name"] for t in outer.to_dicts()] == ["work"]
        assert inner.to_dicts() == []

    def test_noop_span_is_freely_usable(self):
        tracer = NullTracer()
        with tracer.span("anything", k=1) as span:
            span.set(more=2)
        assert tracer.to_dicts() == []


class TestJsonlSink:
    def test_write_round_trips_via_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("solve", seed=3):
            with tracer.span("lp_build"):
                pass
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write(tracer)
        (line,) = path.read_text().splitlines()
        tree = json.loads(line)
        assert tree["name"] == "solve"
        assert tree["children"][0]["name"] == "lp_build"
        # write() drained the tracer: a second write appends nothing
        sink.write(tracer)
        assert len(path.read_text().splitlines()) == 1

    def test_appends_one_line_per_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        for name in ("a", "b"):
            tracer = Tracer()
            with tracer.span(name):
                pass
            sink.write(tracer)
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["a", "b"]


class TestBatchTelemetry:
    def test_solve_many_writes_one_tree_and_counts_one_operation(self, tmp_path):
        """The batch solver observes the batch; its per-task solves run
        without telemetry of their own, so their spans hang below the
        batch and the metrics count ``solve_many`` alone."""
        import numpy as np

        from repro.api import Solver, SolverConfig, TelemetryOptions, build_scenario

        path = tmp_path / "trace.jsonl"
        telemetry = TelemetryOptions(trace=True, metrics=True, trace_path=str(path))
        solver = Solver(SolverConfig(method="greedy", telemetry=telemetry))
        problems = [
            build_scenario("das2", rng=np.random.default_rng(s)) for s in range(3)
        ]
        solver.solve_many(problems, rng=0)

        def shape(span):
            return [
                span["name"],
                span.get("attrs"),
                [shape(child) for child in span.get("children", [])],
            ]

        (line,) = path.read_text().splitlines()
        solve = ["solve", {"method": "greedy", "objective": "maxmin"}, []]
        assert shape(json.loads(line)) == [
            "solve_many",
            {"n_problems": 3},
            [["task", {"index": i, "task_id": str(i)}, [solve]] for i in range(3)],
        ]
        families = solver.metrics.families()
        for name in ("repro_solver_operations_total", "repro_solver_operation_seconds"):
            (key,) = families[name]["children"]
            assert key == (("op", "solve_many"),)
        (ops,) = families["repro_solver_operations_total"]["children"].values()
        assert ops.value == 1
