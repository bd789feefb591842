"""Tests for repro.schedule.periodic and timeline."""

import numpy as np
import pytest

from repro import Solver, SteadyStateProblem, line_platform
from repro.schedule import build_periodic_schedule, unrolled_timeline
from repro.schedule.timeline import total_produced
from repro.util.errors import ScheduleError


@pytest.fixture
def schedule(problem_factory):
    problem = problem_factory(seed=0, n_clusters=5)
    result = Solver.for_method("lprg").solve(problem)
    return build_periodic_schedule(problem.platform, result.allocation, denominator=500)


class TestPeriodicSchedule:
    def test_valid_by_construction(self, schedule):
        schedule.validate()  # must not raise

    def test_throughput_matches_loads(self, schedule):
        assert np.allclose(
            schedule.throughputs, schedule.loads.sum(axis=1) / schedule.period
        )

    def test_compute_time_within_period(self, schedule):
        for k in range(schedule.n_clusters):
            assert schedule.compute_time(k) <= schedule.period * (1 + 1e-6)

    def test_link_time_within_period(self, schedule):
        for k in range(schedule.n_clusters):
            assert schedule.link_time(k) <= schedule.period * (1 + 1e-6)

    def test_as_allocation_is_valid(self, schedule, problem_factory):
        problem = problem_factory(seed=0, n_clusters=5)
        report = problem.check(schedule.as_allocation())
        assert report.ok, report.violations

    def test_describe(self, schedule):
        text = schedule.describe()
        assert "compute util" in text and "Tp=" in text

    def test_zero_speed_with_load_rejected(self):
        from repro import Cluster, Platform
        from repro.schedule.periodic import PeriodicSchedule

        platform = Platform([Cluster("A", 0.0, 1.0, "R0")], ["R0"], [])
        sched = PeriodicSchedule(
            platform=platform,
            period=10,
            loads=np.array([[5]], dtype=np.int64),
            beta=np.zeros((1, 1), dtype=np.int64),
        )
        with pytest.raises(ScheduleError):
            sched.validate()

    def test_overloaded_schedule_rejected(self):
        platform = line_platform(1)  # speed 100
        from repro.schedule.periodic import PeriodicSchedule

        sched = PeriodicSchedule(
            platform=platform,
            period=1,
            loads=np.array([[1000]], dtype=np.int64),
            beta=np.zeros((1, 1), dtype=np.int64),
        )
        with pytest.raises(ScheduleError):
            sched.validate()


class TestTimeline:
    def test_boundary_periods(self, schedule):
        plans = unrolled_timeline(schedule, 5)
        assert len(plans) == 5
        assert plans[0].computations == ()  # no computation first
        assert plans[-1].transfers == ()  # no communication last
        for plan in plans[1:-1]:
            assert plan.transfers and plan.computations

    def test_times_are_contiguous(self, schedule):
        plans = unrolled_timeline(schedule, 4)
        for prev, cur in zip(plans, plans[1:]):
            assert cur.start == pytest.approx(prev.end)

    def test_total_produced_is_p_minus_one_periods(self, schedule):
        P = 6
        plans = unrolled_timeline(schedule, P)
        produced = total_produced(plans, schedule.n_clusters)
        expected = schedule.loads.sum(axis=1) * (P - 1)
        assert np.allclose(produced, expected)

    def test_minimum_two_periods(self, schedule):
        with pytest.raises(ScheduleError):
            unrolled_timeline(schedule, 1)

    def test_transfer_connection_counts(self, schedule):
        plans = unrolled_timeline(schedule, 3)
        for t in plans[0].transfers:
            assert t.connections >= 1
            assert t.volume == schedule.loads[t.src, t.dst]
            assert t.app == t.src

    def test_plan_totals(self, schedule):
        plans = unrolled_timeline(schedule, 3)
        mid = plans[1]
        remote = schedule.loads.sum() - np.trace(schedule.loads)
        assert mid.total_transferred == pytest.approx(remote)
        assert mid.total_computed == pytest.approx(schedule.loads.sum())
