"""Tests for the greedy heuristic G (Section 5.1)."""

import numpy as np
import pytest

from repro import (
    Solver,
    SteadyStateProblem,
    fully_connected_platform,
    line_platform,
    star_platform,
)
from repro.heuristics.greedy import greedy_allocate
from repro.platform.topology import CapacityLedger


class TestBasicBehaviour:
    def test_single_cluster_takes_all_speed(self):
        problem = SteadyStateProblem(line_platform(1), objective="maxmin")
        alloc = greedy_allocate(problem)
        assert alloc.alpha[0, 0] == pytest.approx(100.0)

    def test_allocation_always_valid(self, problem_factory):
        for seed in range(5):
            problem = problem_factory(seed=seed, n_clusters=7)
            alloc = greedy_allocate(problem)
            report = problem.check(alloc)
            assert report.ok, report.violations

    def test_zero_payoff_app_gets_nothing(self):
        platform = fully_connected_platform(3, g=50.0, bw=10.0, max_connect=2)
        problem = SteadyStateProblem(platform, [1.0, 0.0, 1.0], objective="maxmin")
        alloc = greedy_allocate(problem)
        assert alloc.throughput(1) == 0.0
        # ... but its cluster still serves others or itself stays idle.
        assert alloc.throughput(0) > 0 and alloc.throughput(2) > 0

    def test_saturates_all_speed_with_uniform_payoffs(self):
        # With every app participating, G ends only when all speed is used.
        platform = fully_connected_platform(4, g=200.0, bw=30.0, max_connect=5)
        problem = SteadyStateProblem(platform, objective="sum")
        alloc = greedy_allocate(problem)
        assert alloc.throughputs.sum() == pytest.approx(platform.speeds.sum())

    def test_deterministic(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=6)
        a = greedy_allocate(problem)
        b = greedy_allocate(problem)
        assert a == b

    def test_export_when_local_speed_zero(self):
        # Hub has work (payoff 1) but zero speed: everything is exported.
        platform = star_platform(2, hub_speed=0.0, g=100.0, bw=10.0, max_connect=2)
        problem = SteadyStateProblem(platform, [1, 0, 0], objective="maxmin")
        alloc = greedy_allocate(problem)
        assert alloc.alpha[0, 0] == 0.0
        assert alloc.throughput(0) > 0
        assert alloc.beta[0, 1] + alloc.beta[0, 2] >= 1

    def test_respects_connection_limits(self):
        # One leaf, max_connect=1, bw=10 -> at most 10 exported.
        platform = star_platform(1, hub_speed=0.0, g=100.0, bw=10.0, max_connect=1)
        problem = SteadyStateProblem(platform, [1, 0], objective="maxmin")
        alloc = greedy_allocate(problem)
        assert alloc.beta[0, 1] == 1
        assert alloc.alpha[0, 1] == pytest.approx(10.0)


class TestFairnessSelection:
    def test_smallest_received_payoff_first(self):
        # Two apps, one with a huge head start via the base allocation:
        # the other must be served first.
        platform = fully_connected_platform(2, g=100.0, bw=10.0, max_connect=1)
        problem = SteadyStateProblem(platform, objective="maxmin")
        from repro.core.allocation import Allocation

        base = Allocation.zeros(2)
        base.alpha[0, 0] = 50.0
        ledger = CapacityLedger(platform)
        ledger.commit_local(0, 50.0)
        alloc = greedy_allocate(problem, ledger=ledger, base=base)
        # Both end up fully served (speed saturation), but app 1 got at
        # least as much as app 0 gained on top of its head start.
        assert alloc.throughput(1) >= alloc.throughput(0) - 50.0 - 1e-9

    def test_high_payoff_breaks_ties(self):
        # Two zero-speed origins compete for the single fast worker; the
        # payoff-2 application is selected first and takes all of it.
        platform = fully_connected_platform(
            3, speeds=[0.0, 0.0, 10.0], g=100.0, bw=10.0, max_connect=5
        )
        problem = SteadyStateProblem(platform, [1.0, 2.0, 0.0], objective="sum")
        alloc = greedy_allocate(problem)
        assert alloc.throughput(1) == pytest.approx(10.0)
        assert alloc.throughput(0) == pytest.approx(0.0)

    def test_fairness_in_payoff_terms(self):
        # With one shared export path, the low-payoff app receives more
        # raw throughput: the greedy balances alpha_k * pi_k, not alpha_k.
        platform = fully_connected_platform(2, g=5.0, bw=10.0, max_connect=1)
        problem = SteadyStateProblem(platform, [1.0, 2.0], objective="sum")
        alloc = greedy_allocate(problem)
        assert alloc.throughput(0) * 1.0 <= alloc.throughput(1) * 2.0 + 1e-9


class TestWarmStart:
    def test_base_allocation_is_extended_not_rebuilt(self, problem_factory):
        problem = problem_factory(seed=4, n_clusters=5)
        base = greedy_allocate(problem)
        # Re-running on an exhausted ledger returns the base unchanged.
        ledger = CapacityLedger(problem.platform)
        from repro.heuristics.lprg import charge_ledger

        charge_ledger(ledger, base)
        again = greedy_allocate(problem, ledger=ledger, base=base)
        assert np.allclose(again.alpha, base.alpha, atol=1e-6)

    def test_runs_via_registry(self, problem_factory):
        problem = problem_factory(seed=5, n_clusters=5)
        result = Solver.for_method("g").solve(problem)
        assert result.method == "greedy"
        assert result.n_lp_solves == 0
        assert result.value == pytest.approx(problem.objective_value(result.allocation))
