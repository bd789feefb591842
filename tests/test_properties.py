"""Cross-module property-based tests: the paper's core invariants.

These are the load-bearing guarantees of the whole reproduction:

1. every heuristic always returns a *valid allocation* (Equations 1-4)
   on arbitrary generated platforms and payoff vectors;
2. the LP relaxation dominates every realizable method, and the exact
   MILP optimum sits between the heuristics and the LP bound;
3. LPRG dominates LPR by construction;
4. schedule reconstruction preserves feasibility and (quantized)
   throughput;
5. the simulator realises every reconstructed schedule exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import Solver
from repro.schedule import build_periodic_schedule, quantize_allocation
from repro.simulation import FlowSimulator
from repro.simulation.metrics import throughput_ratios

from tests.strategies import problems


class TestHeuristicValidity:
    @given(problems(max_clusters=5))
    @settings(max_examples=20)
    def test_greedy_always_valid(self, problem):
        result = Solver.for_method("greedy").solve(problem)
        report = problem.check(result.allocation)
        assert report.ok, report.violations

    @given(problems(max_clusters=5))
    @settings(max_examples=12)
    def test_lpr_always_valid(self, problem):
        result = Solver.for_method("lpr").solve(problem)
        report = problem.check(result.allocation)
        assert report.ok, report.violations

    @given(problems(max_clusters=5))
    @settings(max_examples=12)
    def test_lprg_always_valid(self, problem):
        result = Solver.for_method("lprg").solve(problem)
        report = problem.check(result.allocation)
        assert report.ok, report.violations

    @given(problems(max_clusters=4))
    @settings(max_examples=8)
    def test_lprr_always_valid(self, problem):
        result = Solver.for_method("lprr").solve(problem, rng=0)
        report = problem.check(result.allocation)
        assert report.ok, report.violations


class TestDominanceChain:
    @given(problems(max_clusters=5))
    @settings(max_examples=10)
    def test_lp_geq_milp_geq_heuristics(self, problem):
        lp = Solver.for_method("lp").solve(problem).value
        milp = Solver.for_method("milp").solve(problem).value
        assert lp >= milp - 1e-5
        for method in ("greedy", "lpr", "lprg"):
            value = Solver.for_method(method).solve(problem).value
            assert milp >= value - 1e-5, method
            assert lp >= value - 1e-5, method

    @given(problems(max_clusters=5))
    @settings(max_examples=12)
    def test_lprg_dominates_lpr(self, problem):
        lpr = Solver.for_method("lpr").solve(problem).value
        lprg = Solver.for_method("lprg").solve(problem).value
        assert lprg >= lpr - 1e-9

    @given(problems(max_clusters=5))
    @settings(max_examples=12)
    def test_objective_value_consistency(self, problem):
        """A result's value always equals re-scoring its allocation."""
        for method in ("greedy", "lprg"):
            result = Solver.for_method(method).solve(problem)
            assert result.value == pytest.approx(
                problem.objective_value(result.allocation), abs=1e-9
            )


class TestSchedulePipeline:
    @given(problems(max_clusters=4, objective="maxmin"))
    @settings(max_examples=8)
    def test_quantization_preserves_feasibility(self, problem):
        alloc = Solver.for_method("greedy").solve(problem).allocation
        q = quantize_allocation(alloc, denominator=128)
        report = problem.check(q.alloc)
        assert report.ok, report.violations
        assert np.all(q.throughputs <= alloc.throughputs + 1e-9)

    @given(problems(max_clusters=4, objective="maxmin"))
    @settings(max_examples=6)
    def test_simulator_realises_schedule(self, problem):
        alloc = Solver.for_method("lprg").solve(problem).allocation
        schedule = build_periodic_schedule(problem.platform, alloc, denominator=64)
        # Reserved rates (the paper's implicit discipline): deadline-exact.
        reserved = FlowSimulator(problem.platform, rate_policy="reserved").run(
            schedule, n_periods=4
        )
        assert reserved.late_flows == 0
        assert np.allclose(
            throughput_ratios(reserved, schedule.throughputs), 1.0, atol=1e-9
        )
        # Max-min sharing: transfers may individually run late, but the
        # steady-state throughput claim must still hold.
        fair = FlowSimulator(problem.platform, rate_policy="maxmin").run(
            schedule, n_periods=4
        )
        assert np.allclose(
            throughput_ratios(fair, schedule.throughputs), 1.0, atol=1e-9
        )
