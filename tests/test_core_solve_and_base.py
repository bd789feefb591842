"""Tests for solving through ``Solver``, heuristic base plumbing, and
errors."""

import numpy as np
import pytest

from repro import (
    ReproError,
    Solver,
    SteadyStateProblem,
    ValidationError,
    line_platform,
)
from repro.heuristics.base import (
    Heuristic,
    HeuristicResult,
    available_methods,
    get_heuristic,
)
from repro.util.errors import (
    InfeasibleError,
    PlatformError,
    RoutingError,
    ScheduleError,
    SimulationError,
    SolverError,
    UnboundedError,
)


class TestSolveFacade:
    def test_available_methods(self):
        methods = available_methods()
        assert "lprg" in methods and "milp" in methods
        assert methods == tuple(sorted(methods))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            Solver.for_method("quantum-annealing")

    def test_case_insensitive(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=3)
        assert Solver.for_method("LPRG").solve(problem).method == "lprg"

    def test_runtime_recorded(self, problem_factory):
        result = Solver.for_method("lprg").solve(
            problem_factory(seed=0, n_clusters=4)
        )
        assert result.runtime > 0.0

    def test_kwargs_forwarded(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4)
        solver = Solver.for_method("lprr", eager_integer_fixing=True)
        assert solver.solve(problem, rng=0).allocation is not None

    def test_result_repr(self, problem_factory):
        result = Solver.for_method("greedy").solve(
            problem_factory(seed=0, n_clusters=3)
        )
        assert "greedy" in repr(result)
        assert result.is_schedule


class TestHeuristicBase:
    def test_duplicate_registration_rejected(self):
        from repro.heuristics.base import register_heuristic

        class Dup(Heuristic):
            name = "greedy"  # already taken

        with pytest.raises(ValueError):
            register_heuristic(Dup)

    def test_abstract_solve(self, problem_factory):
        h = Heuristic()
        with pytest.raises(NotImplementedError):
            h.run(problem_factory(seed=0, n_clusters=2))

    def test_heuristic_repr(self):
        assert "greedy" in repr(get_heuristic("greedy"))

    def test_lp_bound_is_not_schedule_in_general(self, problem_factory):
        # On most random platforms the relaxation is fractional, but if
        # it happens to be integral an allocation IS attached; either
        # way, the flag and the field must agree.
        result = Solver.for_method("lp").solve(
            problem_factory(seed=0, n_clusters=5)
        )
        assert result.is_schedule == (result.allocation is not None)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            PlatformError, RoutingError, SolverError, InfeasibleError,
            UnboundedError, ScheduleError, SimulationError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(RoutingError, PlatformError)
        assert issubclass(InfeasibleError, SolverError)

    def test_validation_error_summary_truncates(self):
        err = ValidationError([f"violation {i}" for i in range(10)])
        assert "+5 more" in str(err)
        assert len(err.violations) == 10

    def test_validation_error_short_list(self):
        err = ValidationError(["just one"])
        assert "just one" in str(err)
        assert "more" not in str(err)

    def test_catch_all(self, problem_factory):
        # A single except ReproError catches solver-level failures.
        from repro.lp.builder import build_lp
        from repro.lp.scipy_backend import solve_lp_scipy

        problem = problem_factory(seed=0, n_clusters=2)
        inst = build_lp(problem)
        lb, ub = inst.lb.copy(), inst.ub.copy()
        lb[0], ub[0] = 1e12, 2e12
        with pytest.raises(ReproError):
            solve_lp_scipy(inst.with_bounds(lb, ub))
