"""Tests for LPR, LPRG, LPRR and the bound comparators (Section 5.2)."""

import numpy as np
import pytest

from repro import Solver, SteadyStateProblem, star_platform
from repro.heuristics.base import get_heuristic, registry
from repro.heuristics.lpr import _floor_snapped, round_down
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy


class TestRegistry:
    def test_all_methods_registered(self):
        names = set(registry())
        assert {"greedy", "lpr", "lprg", "lprr", "lprr-eq", "lp", "milp", "bnb"} <= names

    def test_aliases(self):
        assert get_heuristic("g").name == "greedy"
        assert get_heuristic("exact").name == "milp"
        assert get_heuristic("LP-BOUND").name == "lp"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_heuristic("nope")


class TestFloorSnapped:
    def test_plain_floor(self):
        assert _floor_snapped(2.7) == 2

    def test_solver_noise_snaps_up(self):
        assert _floor_snapped(2.9999999) == 3

    def test_solver_noise_snaps_down(self):
        assert _floor_snapped(3.0000001) == 3

    def test_exact_integers(self):
        assert _floor_snapped(0.0) == 0 and _floor_snapped(5.0) == 5


class TestLPR:
    def test_rounding_never_increases(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=6)
        relaxed = solve_lp_scipy(build_lp(problem))
        alloc = round_down(problem, relaxed)
        assert np.all(alloc.alpha <= relaxed.alpha + 1e-9)
        assert np.all(alloc.beta <= np.floor(relaxed.beta + 1e-6) + 1e-9)

    def test_result_valid(self, problem_factory):
        for seed in range(4):
            problem = problem_factory(seed=seed, n_clusters=6)
            result = Solver.for_method("lpr").solve(problem)
            assert problem.check(result.allocation).ok

    def test_bounded_by_relaxation(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=6)
        lpr = Solver.for_method("lpr").solve(problem)
        lp = Solver.for_method("lp").solve(problem)
        assert lpr.value <= lp.value + 1e-6
        assert lpr.meta["relaxation_value"] == pytest.approx(lp.value, rel=1e-9)

    def test_known_total_rounddown_failure(self):
        # Two zero-speed origins on the same router must share a single
        # max-connect-1 link to the only worker: the LP is FORCED to
        # beta = 0.5 for both (any optimal point needs beta >= 0.5 each),
        # so LPR floors both to zero - the Section-6.1 failure mode.
        from repro import Cluster, Platform, BackboneLink

        platform = Platform(
            clusters=[
                Cluster("A", 0.0, 10.0, "R0"),
                Cluster("B", 0.0, 10.0, "R0"),
                Cluster("W", 100.0, 100.0, "R1"),
            ],
            routers=["R0", "R1"],
            backbone_links=[BackboneLink("L", ("R0", "R1"), bw=10.0, max_connect=1)],
        )
        problem = SteadyStateProblem(platform, [1, 1, 0], objective="maxmin")
        lp = Solver.for_method("lp").solve(problem)
        lpr = Solver.for_method("lpr").solve(problem)
        assert lp.value == pytest.approx(5.0)
        assert lpr.value == pytest.approx(0.0)  # all betas rounded to 0
        # Bonus: here the TRUE optimum is 0 too - the LP bound is not
        # achievable by any integer solution (integrality gap).
        assert Solver.for_method("milp").solve(problem).value == pytest.approx(0.0)


class TestLPRG:
    def test_dominates_lpr(self, problem_factory):
        for seed in range(5):
            problem = problem_factory(seed=seed, n_clusters=6)
            lpr = Solver.for_method("lpr").solve(problem)
            lprg = Solver.for_method("lprg").solve(problem)
            assert lprg.value >= lpr.value - 1e-9

    def test_repairs_the_lpr_failure(self):
        platform = star_platform(1, hub_speed=0.0, g=20.0, bw=40.0, max_connect=1)
        problem = SteadyStateProblem(platform, [1, 0], objective="maxmin")
        lprg = Solver.for_method("lprg").solve(problem)
        # Greedy reclaims the connection: min(g_hub, bw, g_leaf, s) = 20.
        assert lprg.value == pytest.approx(20.0)

    def test_result_valid(self, problem_factory):
        for seed in range(5):
            problem = problem_factory(seed=seed, n_clusters=6)
            result = Solver.for_method("lprg").solve(problem)
            report = problem.check(result.allocation)
            assert report.ok, report.violations

    def test_meta_records_stage_values(self, problem_factory):
        problem = problem_factory(seed=2, n_clusters=5)
        result = Solver.for_method("lprg").solve(problem)
        assert result.meta["lpr_value"] <= result.value + 1e-9
        assert result.value <= result.meta["relaxation_value"] + 1e-6


class TestLPRR:
    def test_result_valid_and_bounded(self, problem_factory):
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5)
            result = Solver.for_method("lprr").solve(problem, rng=seed)
            assert problem.check(result.allocation).ok
            assert result.value <= Solver.for_method("lp").solve(problem).value + 1e-6

    def test_lp_solve_count_is_routes_plus_one(self, problem_factory):
        problem = problem_factory(seed=4, n_clusters=5)
        inst = build_lp(problem)
        result = Solver.for_method("lprr").solve(problem, rng=0)
        assert result.n_lp_solves == inst.index.n_beta + 1

    def test_eager_fixing_cuts_lp_count(self, problem_factory):
        problem = problem_factory(seed=4, n_clusters=5)
        lazy = Solver.for_method("lprr").solve(problem, rng=0)
        eager = Solver.for_method("lprr", eager_integer_fixing=True).solve(
            problem, rng=0
        )
        assert eager.n_lp_solves <= lazy.n_lp_solves
        assert problem.check(eager.allocation).ok

    def test_deterministic_given_seed(self, problem_factory):
        problem = problem_factory(seed=5, n_clusters=5)
        a = Solver.for_method("lprr").solve(problem, rng=11)
        b = Solver.for_method("lprr").solve(problem, rng=11)
        assert a.value == pytest.approx(b.value)

    def test_equal_probability_variant_valid(self, problem_factory):
        problem = problem_factory(seed=6, n_clusters=5)
        result = Solver.for_method("lprr-eq").solve(problem, rng=0)
        assert problem.check(result.allocation).ok


class TestBounds:
    def test_lp_dominates_everything(self, problem_factory):
        for seed in range(3):
            for objective in ("maxmin", "sum"):
                problem = problem_factory(seed=seed, n_clusters=5, objective=objective)
                lp = Solver.for_method("lp").solve(problem).value
                for method in ("greedy", "lpr", "lprg", "lprr", "milp"):
                    value = Solver.for_method(method).solve(problem, rng=0).value
                    assert value <= lp + 1e-5, (method, objective, seed)

    def test_milp_dominates_heuristics(self, problem_factory):
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5)
            exact = Solver.for_method("milp").solve(problem).value
            for method in ("greedy", "lpr", "lprg", "lprr"):
                value = Solver.for_method(method).solve(problem, rng=0).value
                assert value <= exact + 1e-5, (method, seed)

    def test_lp_bound_has_no_allocation_when_fractional(self):
        # The forced-fractional construction (betas pinned at 0.5).
        from repro import BackboneLink, Cluster, Platform

        platform = Platform(
            clusters=[
                Cluster("A", 0.0, 10.0, "R0"),
                Cluster("B", 0.0, 10.0, "R0"),
                Cluster("W", 100.0, 100.0, "R1"),
            ],
            routers=["R0", "R1"],
            backbone_links=[BackboneLink("L", ("R0", "R1"), bw=10.0, max_connect=1)],
        )
        problem = SteadyStateProblem(platform, [1, 1, 0], objective="maxmin")
        result = Solver.for_method("lp").solve(problem)
        assert result.allocation is None  # betas = 0.5 are fractional

    def test_bnb_equals_milp(self, problem_factory):
        problem = problem_factory(seed=8, n_clusters=4)
        assert Solver.for_method("bnb").solve(problem).value == pytest.approx(
            Solver.for_method("milp").solve(problem).value, rel=1e-5, abs=1e-5
        )
