"""Scenario registry: registration, lookup, construction, Solver glue."""

import doctest

import numpy as np
import pytest

from repro import (
    Solver,
    SolverConfig,
    available_scenarios,
    build_scenario,
    scenario_info,
)
from repro.api.scenarios import ScenarioRegistry
from repro.experiments.config import DEFAULT_SCENARIO, LITERAL_SCENARIO


class TestBuiltins:
    def test_builtin_names_present(self):
        names = available_scenarios()
        for expected in (
            "grid5000", "das2", "intercontinental",
            "table1-small", "table1-medium", "hotspot",
            "calibrated", "paper-literal",
        ):
            assert expected in names

    def test_kind_filter(self):
        platform_names = available_scenarios("platform")
        sweep_names = available_scenarios("sweep")
        events_names = available_scenarios("events")
        assert "das2" in platform_names and "das2" not in sweep_names
        assert "calibrated" in sweep_names and "calibrated" not in platform_names
        assert "drift-heavy" in events_names
        assert "drift-heavy" not in platform_names
        assert set(platform_names) | set(sweep_names) | set(
            events_names
        ) == set(available_scenarios())

    def test_info(self):
        info = scenario_info("hotspot")
        assert info.kind == "platform"
        assert "hub" in info.description
        assert info.as_dict()["name"] == "hotspot"

    @pytest.mark.parametrize(
        "name", ["grid5000", "das2", "intercontinental", "hotspot"]
    )
    def test_fixed_scenarios_build_and_solve(self, name):
        problem = build_scenario(name, objective="sum")
        assert problem.objective.name == "sum"
        report = Solver.for_method("greedy").solve(problem)
        assert report.value > 0

    def test_presets_ignore_rng(self):
        a = build_scenario("das2", rng=0)
        b = build_scenario("das2", rng=123)
        assert a.platform.n_clusters == b.platform.n_clusters
        assert np.array_equal(a.payoffs, b.payoffs)

    def test_table1_family_is_seeded(self):
        a = build_scenario("table1-small", rng=7)
        b = build_scenario("table1-small", rng=7)
        c = build_scenario("table1-small", rng=8)
        assert np.array_equal(a.payoffs, b.payoffs)
        assert not np.array_equal(a.payoffs, c.payoffs)
        assert a.n_clusters == 6
        assert build_scenario("table1-medium", rng=0).n_clusters == 15

    def test_sweep_scenarios_resolve(self):
        from repro.api import scenario_registry

        registry = scenario_registry()
        assert registry.sweep_scenario("calibrated") == DEFAULT_SCENARIO
        assert registry.sweep_scenario("paper-literal") == LITERAL_SCENARIO

    def test_kind_mismatch_rejected(self):
        from repro.api import scenario_registry

        with pytest.raises(ValueError, match="sweep"):
            scenario_registry().sweep_scenario("das2")
        with pytest.raises(ValueError, match="platform"):
            build_scenario("calibrated")


class TestRegistryMechanics:
    def test_register_and_build_custom(self):
        registry = ScenarioRegistry()
        registry.register(
            "tiny-line",
            lambda rng: (
                __import__("repro").line_platform(3, g=50.0),
                [1.0, 2.0, 1.0],
            ),
            description="three clusters in a row",
        )
        problem = registry.build_problem("tiny-line")
        assert problem.n_clusters == 3
        assert problem.payoffs[1] == 2.0
        assert registry.names() == ("tiny-line",)

    def test_duplicate_rejected_unless_overwrite(self):
        registry = ScenarioRegistry()
        factory = lambda rng: (None, None)  # noqa: E731 - never built
        registry.register("x", factory)
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("x", factory)
        registry.register("x", factory, overwrite=True)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioRegistry().register("x", lambda rng: None, kind="magic")

    def test_unknown_name_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'das2'"):
            build_scenario("daz2")

    def test_lookup_case_insensitive(self):
        assert scenario_info("DAS2").name == "das2"


class TestSolverScenarioGlue:
    def test_solve_scenario_deterministic(self):
        solver = Solver(SolverConfig(method="lprg"))
        a = solver.solve_scenario("table1-small", rng=5)
        b = Solver(SolverConfig(method="lprg")).solve_scenario(
            "table1-small", rng=5
        )
        assert a.value == b.value
        assert np.array_equal(a.allocation.alpha, b.allocation.alpha)

    def test_solve_scenario_uses_config_objective(self):
        report = Solver(
            SolverConfig(method="greedy", objective="sum")
        ).solve_scenario("das2")
        assert report.objective == "sum"

    def test_module_doctests(self):
        import repro.api.scenarios as module

        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0
        assert result.attempted > 0
