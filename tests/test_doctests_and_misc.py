"""Doctest execution for modules with examples, plus small uncovered paths."""

import doctest

import numpy as np
import pytest

import repro.platform.presets
import repro.util.tables
from repro import Solver, SteadyStateProblem, line_platform
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [repro.util.tables, repro.platform.presets],
        ids=lambda m: m.__name__,
    )
    def test_module_doctests(self, module):
        failures, tested = doctest.testmod(module, verbose=False).failed, True
        assert failures == 0

    def test_timer_doctest(self):
        import repro.obs.timing

        result = doctest.testmod(repro.obs.timing, verbose=False)
        assert result.failed == 0
        assert result.attempted > 0


class TestBaseThroughputOffsets:
    def test_offset_raises_maxmin_bound(self):
        """With base throughput b for every app, the MAXMIN LP value is
        at least min pi_k * b_k (the base alone secures it)."""
        platform = line_platform(3, g=50.0)
        problem = SteadyStateProblem(platform, objective="maxmin")
        base = np.array([40.0, 10.0, 25.0])
        plain = solve_lp_scipy(build_lp(problem)).value
        offset = solve_lp_scipy(build_lp(problem, base_throughputs=base)).value
        assert offset >= plain - 1e-9
        assert offset >= float(base.min()) - 1e-9

    def test_bad_offset_shape_rejected(self):
        problem = SteadyStateProblem(line_platform(2), objective="maxmin")
        with pytest.raises(ValueError):
            build_lp(problem, base_throughputs=np.zeros(5))

    def test_sum_objective_ignores_offsets(self):
        problem = SteadyStateProblem(line_platform(2), objective="sum")
        a = solve_lp_scipy(build_lp(problem)).value
        b = solve_lp_scipy(
            build_lp(problem, base_throughputs=np.array([5.0, 5.0]))
        ).value
        assert a == pytest.approx(b)


class TestMiscSolverPaths:
    def test_milp_time_limit_parameter_accepted(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=3)
        result = Solver.for_method("milp", time_limit=60.0).solve(problem)
        assert result.allocation is not None

    def test_solve_validates_output(self, problem_factory):
        """The façade re-validates; a valid heuristic passes through."""
        problem = problem_factory(seed=1, n_clusters=4)
        result = Solver.for_method("lprg-it").solve(problem)
        assert problem.check(result.allocation).ok
