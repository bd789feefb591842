"""Tests for repro.simulation.trace and its engine integration."""

import numpy as np
import pytest

from repro import Solver
from repro.schedule import build_periodic_schedule
from repro.simulation import FlowSimulator, TraceRecorder


@pytest.fixture
def traced_run(problem_factory):
    problem = problem_factory(seed=1, n_clusters=5)
    result = Solver.for_method("lprg").solve(problem)
    schedule = build_periodic_schedule(
        problem.platform, result.allocation, denominator=200
    )
    trace = TraceRecorder()
    sim = FlowSimulator(problem.platform, trace=trace)
    out = sim.run(schedule, n_periods=6)
    return problem, schedule, trace, out


class TestTraceRecorder:
    def test_records_period_starts(self, traced_run):
        _, _, trace, _ = traced_run
        starts = trace.events_of_kind("period_start")
        assert [e.data["index"] for e in starts] == list(range(6))

    def test_flow_start_end_balance(self, traced_run):
        _, schedule, trace, out = traced_run
        n_starts = len(trace.events_of_kind("flow_start"))
        n_ends = len(trace.events_of_kind("flow_end"))
        assert n_starts == n_ends  # every launched transfer completed
        remote_pairs = int(np.count_nonzero(
            schedule.loads - np.diag(np.diag(schedule.loads))
        ))
        assert n_starts == remote_pairs * 5  # 5 communicating periods

    def test_compute_totals_match_result(self, traced_run):
        _, _, trace, out = traced_run
        assert sum(trace.compute_units.values()) == pytest.approx(
            float(out.completed.sum())
        )

    def test_transfer_totals_match_schedule(self, traced_run):
        _, schedule, trace, _ = traced_run
        remote = schedule.loads.sum() - np.trace(schedule.loads)
        # Each transferred unit is charged to both endpoints, 5 periods.
        assert sum(trace.link_bytes.values()) == pytest.approx(2 * remote * 5, rel=1e-9)

    def test_utilizations_bounded(self, traced_run):
        problem, _, trace, out = traced_run
        platform = problem.platform
        for k, cluster in enumerate(platform.clusters):
            cu = trace.compute_utilization(k, cluster.speed, horizon=out.elapsed)
            lu = trace.link_utilization(k, cluster.g, horizon=out.elapsed)
            assert 0.0 <= cu <= 1.0 + 1e-9
            assert 0.0 <= lu <= 1.0 + 1e-9

    def test_zero_horizon_and_capacity(self):
        trace = TraceRecorder()
        assert trace.link_utilization(0, 10.0) == 0.0
        assert trace.compute_utilization(0, 0.0, horizon=5.0) == 0.0

    def test_len_counts_events(self, traced_run):
        _, _, trace, _ = traced_run
        assert len(trace) == len(trace.events)
