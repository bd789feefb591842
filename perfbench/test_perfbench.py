"""Tests of the benchmark's own helpers (statistics, self time, checks).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pb_checks  # noqa: E402
import pb_stats  # noqa: E402
import pb_trace  # noqa: E402


# -- tail percentile ---------------------------------------------------------
def test_tail_is_p75_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 2001)]
    assert pb_stats.tail_percentile(values) == (75.0, 1500.0)
    assert pb_stats.tail_percentile(values[:40]) == (75.0, 30.0)


def test_tail_omitted_with_fewer_than_ten_samples_beyond():
    assert pb_stats.tail_percentile([1.0] * 39) is None
    assert pb_stats.tail_percentile([1.0] * 12) is None
    summary = pb_stats.latency_summary([0.001] * 12)
    assert "tail_ms" not in summary and summary["p50_ms"] == 1.0


def test_tail_ignores_input_order():
    values = [float(v) for v in range(200, 0, -1)]
    assert pb_stats.tail_percentile(values) == (75.0, 150.0)


# -- self time ---------------------------------------------------------------
def _span(sid, start, end, parent=None, links=(), leaf_ns=0):
    span = pb_trace.Span(sid, f"s{sid}", parent, None, None, start, end)
    span.links = list(links)
    span.leaf_ns = leaf_ns
    return span


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 30, parent=1),
        _span(3, 15, 20, parent=2),
        _span(4, 50, 60, parent=1),
    ]
    assert pb_trace.self_times(spans) == {1: 70, 2: 15, 3: 5, 4: 10}


def test_self_time_takes_union_of_children_on_other_threads():
    # two overlapping children on other threads, one outliving its parent
    spans = [
        _span(1, 0, 100),
        _span(2, 20, 60, parent=1),
        _span(3, 40, 120, parent=1),
    ]
    assert pb_trace.self_times(spans)[1] == 20


def test_self_time_counts_leaf_calls_and_batch_links():
    spans = [
        _span(1, 0, 100, leaf_ns=10),
        _span(2, 0, 100),
        _span(3, 40, 90, links=(1, 2)),  # one batch serving both requests
    ]
    assert pb_trace.self_times(spans) == {1: 40, 2: 50, 3: 50}


def test_tracer_links_spans_across_threads_by_request():
    tracer = pb_trace.Tracer()
    root = tracer.open("request", rid=7, root=True)
    seen = {}

    def worker():
        span = tracer.open("work", rid=7)
        tracer.leaf("leaf", 5)
        tracer.close(span)
        seen["span"] = span

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(root)
    work = seen["span"]
    assert work.parent == root.id and work.thread != root.thread
    assert work.leaf_ns == 5
    assert tracer.leaves()[("leaf", "work")] == [1, 5]
    selfs = pb_trace.self_times(tracer.spans)
    assert selfs[root.id] == root.duration - work.duration


def test_install_patches_where_names_are_looked_up_and_undo_restores():
    import repro.heuristics.lprr as lprr
    import repro.lp.builder as builder
    import repro.lp.session as session

    build_lp, revised = builder.build_lp, session.revised_solve
    patches = pb_trace.install(pb_trace.Tracer())
    try:
        assert lprr.build_lp is not build_lp
        assert builder.build_lp is lprr.build_lp
        assert session.revised_solve is not revised
    finally:
        patches.undo()
    assert lprr.build_lp is build_lp and builder.build_lp is build_lp
    assert session.revised_solve is revised


def test_reported_metrics_match_benchmark_json():
    import run

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == list(pb_trace.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layers = list(pb_trace.layer_metrics(pb_trace.Tracer())) + ["trace.overhead_s"]
    assert layers == [name for name, _ in pb_trace.LAYER_METRICS]


# -- output checks -----------------------------------------------------------
def _row(value, lp_value, method="lprg"):
    return SimpleNamespace(method=method, value=value, lp_value=lp_value)


def test_sweep_check_rejects_value_above_lp_bound():
    assert pb_checks.check_sweep_task([_row(9.0, 10.0), _row(10.0, 10.0)]) == []
    assert pb_checks.check_sweep_task([_row(10.0 * (1 + 1e-6), 10.0)])
    assert pb_checks.check_sweep_task([_row(float("nan"), 10.0)])


def test_sweep_tables_ignore_runtime_only():
    tables = {"ratio_stats": {"lprg|maxmin": [0.91, float("nan")]},
              "runtime_mean_by_k": {"lprg|maxmin": [[8, 0.1]]}}
    same = json.loads(json.dumps(tables))
    same["runtime_mean_by_k"] = {"lprg|maxmin": [[8, 0.2]]}
    assert pb_checks.check_sweep_tables(tables, same) == []
    changed = json.loads(json.dumps(tables))
    changed["ratio_stats"]["lprg|maxmin"][0] = 0.9100000001
    assert pb_checks.check_sweep_tables(tables, changed)


def _report():
    return {
        "method": "lprg", "objective": "maxmin", "value": 1.25,
        "runtime": 0.01, "n_lp_solves": 1,
        "allocation": {"alpha": [[1.0, 0.5], [0.0, 2.0]], "beta": [[0, 1], [0, 0]]},
        "config": {"method": "lprg"}, "cache_stats": {"build_hits": 3},
        "lp_stats": None,
    }


def _body(report):
    return json.dumps({"report": report}, sort_keys=True).encode()


def test_solve_check_accepts_equal_report_up_to_runtime_and_cache():
    served = _report()
    served["runtime"] = 0.5
    served["cache_stats"] = {"build_hits": 9}
    assert pb_checks.check_solve_response(200, _body(served), _report()) == []


def test_solve_check_rejects_non_200_response():
    # even when the body carries the right report
    assert pb_checks.check_solve_response(503, _body(_report()), _report())
    body = json.dumps({"error": "boom"}).encode()
    assert pb_checks.check_solve_response(500, body, _report())


def test_solve_check_rejects_changed_allocation():
    served = _report()
    served["allocation"]["alpha"][0][1] = 0.5000000001
    assert pb_checks.check_solve_response(200, _body(served), _report())


def test_online_check_rejects_perturbed_value():
    assert pb_checks.check_online_value(123.456, 123.456 * (1 + 1e-12)) == []
    assert pb_checks.check_online_value(123.456 * (1 + 1e-7), 123.456)
    assert pb_checks.check_online_value(float("nan"), 123.456)
