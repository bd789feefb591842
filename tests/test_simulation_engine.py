"""Tests for the flow-level simulation engine and metrics."""

import numpy as np
import pytest

from repro import Solver, SteadyStateProblem, line_platform, star_platform
from repro.schedule import build_periodic_schedule
from repro.simulation import FlowSimulator
from repro.simulation.metrics import jain_index, summarize, throughput_ratios
from repro.util.errors import SimulationError


def _run(problem, method="lprg", n_periods=8, denominator=200, rng=0,
         rate_policy="maxmin"):
    result = Solver.for_method(method).solve(problem, rng=rng)
    schedule = build_periodic_schedule(
        problem.platform, result.allocation, denominator=denominator
    )
    sim = FlowSimulator(problem.platform, rate_policy=rate_policy)
    return schedule, sim.run(schedule, n_periods=n_periods)


class TestSteadyStateRealisation:
    def test_local_only_schedule(self):
        problem = SteadyStateProblem(line_platform(1), objective="maxmin")
        schedule, out = _run(problem)
        assert out.late_flows == 0
        assert np.allclose(out.achieved_throughputs(), schedule.throughputs)

    def test_star_with_exports(self):
        platform = star_platform(3, hub_speed=0.0, g=60.0, bw=10.0, max_connect=2)
        problem = SteadyStateProblem(platform, [1, 0, 0, 0], objective="maxmin")
        schedule, out = _run(problem)
        ratios = throughput_ratios(out, schedule.throughputs)
        assert np.allclose(ratios, 1.0, atol=1e-9)

    @pytest.mark.parametrize("method", ["greedy", "lprg", "milp"])
    def test_random_platforms_all_methods(self, problem_factory, method):
        problem = problem_factory(seed=2, n_clusters=5)
        schedule, out = _run(problem, method=method)
        ratios = throughput_ratios(out, schedule.throughputs)
        assert np.all(ratios >= 1.0 - 1e-9), ratios

    def test_multiple_seeds_never_late_under_reservation(self, problem_factory):
        for seed in range(4):
            problem = problem_factory(seed=seed, n_clusters=4)
            schedule, out = _run(problem, n_periods=5, rate_policy="reserved")
            assert out.late_flows == 0
            assert np.allclose(
                out.achieved_throughputs(), schedule.throughputs, rtol=1e-9
            )

    def test_elapsed_close_to_schedule_horizon(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=4)
        schedule, out = _run(problem, n_periods=6)
        # All work finishes within the scheduled horizon (+ drain slack).
        assert out.elapsed <= 6 * schedule.period * (1 + 1e-6)


class TestRatePolicies:
    def test_reserved_policy_meets_all_deadlines(self, problem_factory):
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5)
            result = Solver.for_method("lprg").solve(problem)
            schedule = build_periodic_schedule(
                problem.platform, result.allocation, denominator=200
            )
            sim = FlowSimulator(problem.platform, rate_policy="reserved")
            out = sim.run(schedule, n_periods=6)
            assert out.late_flows == 0
            ratios = throughput_ratios(out, schedule.throughputs)
            assert np.all(ratios >= 1.0 - 1e-9)

    def test_maxmin_policy_converges_even_if_late(self, problem_factory):
        problem = problem_factory(seed=2, n_clusters=5)
        result = Solver.for_method("lprg").solve(problem)
        schedule = build_periodic_schedule(
            problem.platform, result.allocation, denominator=200
        )
        out = FlowSimulator(problem.platform, rate_policy="maxmin").run(
            schedule, n_periods=6
        )
        ratios = throughput_ratios(out, schedule.throughputs)
        assert np.all(ratios >= 1.0 - 1e-9)

    def test_unknown_policy_rejected(self, line3):
        with pytest.raises(SimulationError):
            FlowSimulator(line3, rate_policy="bogus")


class TestEngineEdgeCases:
    def test_empty_schedule(self):
        # Zero-payoff problem: nothing is allocated, nothing simulated.
        problem = SteadyStateProblem(line_platform(2), [0.0, 0.0])
        result = Solver.for_method("greedy").solve(problem)
        schedule = build_periodic_schedule(problem.platform, result.allocation)
        out = FlowSimulator(problem.platform).run(schedule, n_periods=3)
        assert out.completed.sum() == 0.0

    def test_event_budget(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4)
        result = Solver.for_method("lprg").solve(problem)
        schedule = build_periodic_schedule(problem.platform, result.allocation)
        sim = FlowSimulator(problem.platform, max_events=2)
        with pytest.raises(SimulationError):
            sim.run(schedule, n_periods=4)

    def test_result_repr(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=3)
        _, out = _run(problem, n_periods=4)
        assert "SimulationResult" in repr(out)


class TestMetrics:
    def test_jain_equal_shares(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_single_taker(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_throughput_ratios_zero_nominal(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=4)
        schedule, out = _run(problem)
        nominal = schedule.throughputs.copy()
        nominal[0] = 0.0  # pretend app 0 had no allocation
        ratios = throughput_ratios(out, nominal)
        assert ratios[0] == 1.0  # vacuous convention

    def test_summarize_keys(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=4)
        schedule, out = _run(problem)
        s = summarize(out, schedule.throughputs)
        assert {"elapsed", "min_ratio", "mean_ratio", "late_flows", "jain_achieved"} <= set(s)
