"""Failure-injection tests for the simulation engine and greedy options."""

import numpy as np
import pytest

from repro import BackboneLink, Cluster, Platform, Solver, SteadyStateProblem
from repro.heuristics.greedy import greedy_allocate
from repro.schedule.periodic import PeriodicSchedule
from repro.simulation import FlowSimulator
from repro.util.errors import SimulationError


def _two_cluster_platform(g=10.0, bw=5.0, speed=(10.0, 10.0)):
    return Platform(
        [
            Cluster("A", speed[0], g, "R0"),
            Cluster("B", speed[1], g, "R1"),
        ],
        ["R0", "R1"],
        [BackboneLink("L", ("R0", "R1"), bw=bw, max_connect=2)],
    )


def _schedule(platform, loads, beta, period=10):
    return PeriodicSchedule(
        platform=platform,
        period=period,
        loads=np.asarray(loads, dtype=np.int64),
        beta=np.asarray(beta, dtype=np.int64),
    )


class TestStallDetection:
    def test_starved_flow_raises(self):
        """A transfer over a zero-capacity local link can never progress:
        the engine must detect the stall instead of spinning."""
        platform = _two_cluster_platform(g=0.0)
        # Hand-built (invalid) schedule shipping 5 units A -> B.
        schedule = _schedule(platform, [[0, 5], [0, 0]], [[0, 1], [0, 0]])
        sim = FlowSimulator(platform)
        with pytest.raises(SimulationError, match="stalled"):
            sim.run(schedule, n_periods=2)

    def test_zero_speed_backlog_raises(self):
        """Delivered work on a zero-speed cluster can never be computed."""
        platform = Platform(
            [
                Cluster("A", 10.0, 10.0, "R0"),
                Cluster("B", 0.0, 10.0, "R1"),
            ],
            ["R0", "R1"],
            [BackboneLink("L", ("R0", "R1"), bw=5.0, max_connect=2)],
        )
        schedule = _schedule(platform, [[0, 5], [0, 0]], [[0, 1], [0, 0]])
        sim = FlowSimulator(platform)
        with pytest.raises(SimulationError, match="zero-speed"):
            sim.run(schedule, n_periods=2)

    def test_time_never_goes_backwards(self):
        """Regression guard on the event-ordering invariant."""
        platform = _two_cluster_platform()
        schedule = _schedule(
            platform, [[50, 5], [0, 50]], [[0, 1], [0, 0]], period=10
        )
        out = FlowSimulator(platform).run(schedule, n_periods=4)
        assert out.elapsed >= 4 * 10 - 1e-9 or out.completed.sum() > 0


class TestGreedySelectionOption:
    def test_unknown_selection_rejected(self, problem_factory):
        with pytest.raises(ValueError):
            greedy_allocate(problem_factory(seed=0, n_clusters=3), selection="magic")

    def test_literal_selection_still_valid(self, problem_factory):
        """Even the degenerate literal rule must output valid allocations."""
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5)
            alloc = greedy_allocate(problem, selection="literal")
            report = problem.check(alloc)
            assert report.ok, report.violations

    def test_literal_starves_under_maxmin(self):
        """The E14 phenomenon in miniature: with two competing apps and
        a shared bottleneck, the literal rule leaves one app at zero."""
        # Narrow per-connection bandwidth (2) forces many small steps, so
        # the selection rule decides who gets the worker's 8 speed units.
        platform = Platform(
            [
                Cluster("A", 0.0, 10.0, "R0"),
                Cluster("B", 0.0, 10.0, "R0"),
                Cluster("W", 8.0, 100.0, "R1"),
            ],
            ["R0", "R1"],
            [BackboneLink("L", ("R0", "R1"), bw=2.0, max_connect=8)],
        )
        problem = SteadyStateProblem(platform, [1, 1, 0], objective="maxmin")
        fair = greedy_allocate(problem, selection="intuition")
        greedyhog = greedy_allocate(problem, selection="literal")
        assert fair.maxmin_value(problem.payoffs) > 0
        assert greedyhog.maxmin_value(problem.payoffs) == pytest.approx(0.0)

    def test_selection_via_registry(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=4)
        result = Solver.for_method("greedy", selection="literal").solve(problem)
        assert problem.check(result.allocation).ok
