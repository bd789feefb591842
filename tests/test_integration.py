"""End-to-end integration tests across all subsystems."""

import json

import numpy as np
import pytest

from repro import (
    Solver,
    SteadyStateProblem,
    generate_platform,
    load_platform,
    save_platform,
)
from repro.platform.generator import PlatformSpec
from repro.platform.presets import get_preset
from repro.platform.tcp import TcpModel, apply_tcp_model
from repro.schedule import build_periodic_schedule
from repro.simulation import FlowSimulator, TraceRecorder
from repro.simulation.metrics import summarize


class TestFullPipeline:
    """platform -> problem -> heuristic -> schedule -> simulation."""

    @pytest.mark.parametrize("preset", ["das2", "intercontinental"])
    def test_preset_to_simulation(self, preset):
        platform = get_preset(preset)
        K = platform.n_clusters
        payoffs = [1.0] * K
        problem = SteadyStateProblem(platform, payoffs, objective="maxmin")

        result = Solver.for_method("lprg").solve(problem)
        schedule = build_periodic_schedule(platform, result.allocation, denominator=200)
        trace = TraceRecorder()
        sim = FlowSimulator(platform, rate_policy="reserved", trace=trace)
        out = sim.run(schedule, n_periods=6)

        stats = summarize(out, schedule.throughputs)
        assert stats["min_ratio"] >= 1.0 - 1e-9
        assert stats["late_flows"] == 0
        # Trace agrees with the result.
        assert sum(trace.compute_units.values()) == pytest.approx(
            float(out.completed.sum())
        )

    def test_serialized_platform_solves_identically(self, tmp_path):
        spec = PlatformSpec(
            n_clusters=6, connectivity=0.6, heterogeneity=0.5,
            mean_g=200.0, mean_bw=30.0, mean_max_connect=8.0,
            speed_heterogeneity=0.5,
        )
        platform = generate_platform(spec, rng=3)
        path = tmp_path / "p.json"
        save_platform(platform, path)
        clone = load_platform(path)

        payoffs = np.linspace(0.8, 1.2, 6)
        for objective in ("maxmin", "sum"):
            a = Solver.for_method("lprg").solve(
                SteadyStateProblem(platform, payoffs, objective)
            ).value
            b = Solver.for_method("lprg").solve(
                SteadyStateProblem(clone, payoffs, objective)
            ).value
            assert a == pytest.approx(b, rel=1e-9)

    def test_tcp_refined_pipeline(self):
        platform = apply_tcp_model(
            get_preset("intercontinental"),
            TcpModel(window=30.0, default_latency=2.0),
        )
        problem = SteadyStateProblem(platform, objective="maxmin")
        result = Solver.for_method("lprg").solve(problem)
        schedule = build_periodic_schedule(platform, result.allocation, denominator=100)
        out = FlowSimulator(platform, rate_policy="reserved").run(schedule, n_periods=4)
        assert out.late_flows == 0

    def test_objectives_consistent_across_methods(self, problem_factory):
        """The same allocation must score identically however obtained."""
        problem = problem_factory(seed=4, n_clusters=5)
        for method in ("greedy", "lpr", "lprg"):
            result = Solver.for_method(method).solve(problem)
            assert result.value == pytest.approx(
                result.allocation.objective_value("maxmin", problem.payoffs)
            )

    def test_sum_and_maxmin_relationship(self, problem_factory):
        """SUM optimum >= K_active * MAXMIN optimum (pigeonhole)."""
        problem = problem_factory(seed=5, n_clusters=5, objective="maxmin")
        maxmin = Solver.for_method("lp").solve(problem).value
        total = Solver.for_method("lp").solve(problem.with_objective("sum")).value
        n_active = int(problem.active_mask.sum())
        assert total >= n_active * maxmin - 1e-6

    def test_solution_is_json_reportable(self, problem_factory):
        """Results round-trip through plain JSON (tooling contract)."""
        problem = problem_factory(seed=6, n_clusters=4)
        result = Solver.for_method("lprg").solve(problem)
        payload = {
            "method": result.method,
            "value": result.value,
            "alpha": result.allocation.alpha.tolist(),
            "beta": result.allocation.beta.tolist(),
        }
        restored = json.loads(json.dumps(payload))
        assert restored["value"] == result.value
        assert np.array_equal(np.array(restored["alpha"]), result.allocation.alpha)
