"""Tests for repro.lp.indexing and repro.lp.builder."""

import json

import numpy as np
import pytest

from repro import (
    Solver,
    SolverConfig,
    SteadyStateProblem,
    build_scenario,
    line_platform,
    star_platform,
)
from repro.lp.builder import LPBuildCache, build_lp, use_build_cache
from repro.lp.indexing import VariableIndex
from repro.lp.scipy_backend import solve_lp_scipy


class TestVariableIndex:
    def test_alpha_includes_diagonal_and_routed_pairs(self, line3):
        idx = VariableIndex(line3, with_t=True)
        assert idx.n_alpha == 3 + 6  # diagonal + all ordered pairs
        assert idx.has_alpha(0, 0) and idx.has_alpha(0, 2)

    def test_beta_only_for_backbone_routes(self):
        from repro import Cluster, Platform

        # Two clusters on the same router: route exists but has no links.
        platform = Platform(
            [Cluster("A", 10.0, 10.0, "R0"), Cluster("B", 10.0, 10.0, "R0")],
            ["R0"],
            [],
        )
        idx = VariableIndex(platform, with_t=False)
        assert idx.has_alpha(0, 1)
        assert not idx.has_beta(0, 1)
        assert idx.n_beta == 0

    def test_t_index_only_with_maxmin(self, line3):
        idx = VariableIndex(line3, with_t=False)
        with pytest.raises(ValueError):
            idx.t_index
        idx_t = VariableIndex(line3, with_t=True)
        assert idx_t.t_index == idx_t.n_vars - 1

    def test_matrix_scatter_roundtrip(self, line3):
        idx = VariableIndex(line3, with_t=False)
        x = np.arange(idx.n_vars, dtype=float) + 1
        alpha = idx.alpha_matrix(x)
        for i, (k, l) in enumerate(idx.alpha_pairs):
            assert alpha[k, l] == x[i]
        beta = idx.beta_matrix(x)
        for i, (k, l) in enumerate(idx.beta_pairs):
            assert beta[k, l] == x[idx.n_alpha + i]

    def test_integrality_flags(self, line3):
        idx = VariableIndex(line3, with_t=True)
        flags = idx.integrality()
        assert flags.sum() == idx.n_beta
        assert flags[idx.t_index] == 0
        assert flags[: idx.n_alpha].sum() == 0

    def test_disconnected_pair_has_no_alpha(self):
        from repro import Cluster, Platform

        platform = Platform(
            [Cluster("A", 1.0, 1.0, "R0"), Cluster("B", 1.0, 1.0, "R1")],
            ["R0", "R1"],
            [],
        )
        idx = VariableIndex(platform, with_t=False)
        assert not idx.has_alpha(0, 1)
        assert idx.n_alpha == 2  # only the two diagonals


class TestBuildLP:
    def test_row_structure(self, line3):
        problem = SteadyStateProblem(line3, objective="maxmin")
        inst = build_lp(problem)
        labels = inst.row_labels
        assert sum(1 for l in labels if l.startswith("compute")) == 3
        assert sum(1 for l in labels if l.startswith("local")) == 3
        assert sum(1 for l in labels if l.startswith("connect")) == 2
        assert sum(1 for l in labels if l.startswith("bandwidth")) == 6
        assert sum(1 for l in labels if l.startswith("maxmin")) == 3
        assert inst.A_ub.shape == (len(labels), inst.n_vars)

    def test_sum_objective_uses_payoffs(self):
        problem = SteadyStateProblem(line_platform(2), [2.0, 3.0], objective="sum")
        inst = build_lp(problem)
        idx = inst.index
        assert inst.obj[idx.alpha(0, 0)] == 2.0
        assert inst.obj[idx.alpha(1, 0)] == 3.0

    def test_maxmin_rows_skip_zero_payoffs(self):
        problem = SteadyStateProblem(line_platform(2), [1.0, 0.0], objective="maxmin")
        inst = build_lp(problem)
        assert sum(1 for l in inst.row_labels if l.startswith("maxmin")) == 1

    def test_beta_upper_bounds_are_route_caps(self, line3):
        problem = SteadyStateProblem(line3, objective="sum")
        inst = build_lp(problem)
        for (k, l) in inst.index.beta_pairs:
            assert inst.ub[inst.index.beta(k, l)] == 4  # max_connect

    def test_with_bounds_shares_matrices(self, line3):
        problem = SteadyStateProblem(line3, objective="sum")
        inst = build_lp(problem)
        clone = inst.with_bounds(inst.lb, inst.ub + 1)
        assert clone.A_ub is inst.A_ub
        assert clone.ub[0] == inst.ub[0] + 1

    def test_objective_override(self, line3):
        problem = SteadyStateProblem(line3, objective="maxmin")
        inst = build_lp(problem, objective="sum")
        assert not inst.index.with_t


class TestLPValuesOnKnownPlatforms:
    def test_local_only_platform(self):
        # No backbone at all: each cluster computes its own 100.
        from repro import Cluster, Platform

        platform = Platform(
            [Cluster("A", 100.0, 10.0, "R0"), Cluster("B", 50.0, 10.0, "R1")],
            ["R0", "R1"],
            [],
        )
        problem = SteadyStateProblem(platform, objective="maxmin")
        sol = solve_lp_scipy(build_lp(problem))
        assert sol.value == pytest.approx(50.0)
        problem_sum = problem.with_objective("sum")
        sol = solve_lp_scipy(build_lp(problem_sum))
        assert sol.value == pytest.approx(150.0)

    def test_star_with_zero_speed_hub(self):
        # Hub has payoff 1 but no speed; must export through spokes
        # (bw=20, max_connect=3 per spoke, hub g=80, leaf g=80, s=100).
        platform = star_platform(4, hub_speed=0.0, g=80.0, bw=20.0, max_connect=3)
        problem = SteadyStateProblem(platform, [1, 0, 0, 0, 0], objective="maxmin")
        sol = solve_lp_scipy(build_lp(problem))
        # Export limited by hub's g = 80.
        assert sol.value == pytest.approx(80.0)

    def test_bandwidth_bound(self):
        # Single leaf: export <= min(g,bw*max_connect, s_leaf) = 3*20=60.
        platform = star_platform(1, hub_speed=0.0, g=80.0, bw=20.0, max_connect=3)
        problem = SteadyStateProblem(platform, [1, 0], objective="maxmin")
        sol = solve_lp_scipy(build_lp(problem))
        assert sol.value == pytest.approx(60.0)

    def test_sum_equals_total_speed_when_symmetric(self, line3):
        problem = SteadyStateProblem(line3, objective="sum")
        sol = solve_lp_scipy(build_lp(problem))
        assert sol.value == pytest.approx(300.0)


def _report_bytes(report) -> str:
    """A report's JSON minus the two fields that describe the run, not
    the answer (wall clock and the solver's cache counters)."""
    data = report.to_dict()
    del data["runtime"], data["cache_stats"]
    return json.dumps(data, sort_keys=True)


class TestSolutionMemo:
    """The HiGHS-optimum memo beside the template cache."""

    def test_repeat_solve_is_a_bitwise_memo_hit(self, problem_factory):
        problem = problem_factory(3)
        solver = Solver(SolverConfig(method="lprg"))
        first = solver.solve(problem, rng=1)
        assert first.cache_stats["solution_hits"] == 0
        again = solver.solve(problem, rng=1)
        assert again.cache_stats["solution_hits"] == 1
        fresh = Solver(SolverConfig(method="lprg")).solve(problem, rng=1)
        assert _report_bytes(again) == _report_bytes(first)
        assert _report_bytes(again) == _report_bytes(fresh)
        assert again.allocation.alpha.tobytes() == fresh.allocation.alpha.tobytes()

        # the memoized optimum is what a cache-less HiGHS solve returns
        reference = solve_lp_scipy(build_lp(problem))
        with use_build_cache(solver.state.lp_cache):
            instance = build_lp(problem)
            memo = solve_lp_scipy(instance)
        assert solver.state.lp_cache.solution_hits == 2
        assert memo.x.tobytes() == reference.x.tobytes()
        assert memo.value == reference.value
        assert memo.index is instance.index

    def test_mutating_a_returned_x_does_not_reach_the_next_hit(self, line3):
        instance = build_lp(SteadyStateProblem(line3))
        cache = LPBuildCache()
        with use_build_cache(cache):
            solved = solve_lp_scipy(instance)
            pristine = solved.x.copy()
            solved.x[:] = -1.0
            hit = solve_lp_scipy(instance)
            assert hit.x.tobytes() == pristine.tobytes()
            hit.x[:] = -2.0
            assert solve_lp_scipy(instance).x.tobytes() == pristine.tobytes()
        assert cache.solution_hits == 2

    @pytest.mark.parametrize("field", ["lb", "ub", "b_ub", "obj"])
    def test_one_changed_entry_misses(self, line3, field):
        instance = build_lp(SteadyStateProblem(line3, objective="sum"))
        cache = LPBuildCache()
        with use_build_cache(cache):
            solve_lp_scipy(instance)
            changed = instance.fresh_copy()
            array = getattr(changed, field)
            array[-1] = array[-1] + 0.5 if np.isfinite(array[-1]) else 7.0
            assert cache.solution_key(changed) != cache.solution_key(instance)
            solve_lp_scipy(changed)
            assert cache.solution_hits == 0
            solve_lp_scipy(instance)
        assert cache.stats()["solution_hits"] == 1
        assert cache.stats()["solutions"] == 2

    def test_lru_bound_holds(self, line3):
        instance = build_lp(SteadyStateProblem(line3, objective="sum"))
        cache = LPBuildCache(max_entries=3)
        variants = []
        for i in range(5):
            variant = instance.fresh_copy()
            variant.b_ub[0] = 50.0 + i
            variants.append(variant)
        with use_build_cache(cache):
            for variant in variants[:3]:
                solve_lp_scipy(variant)
            solve_lp_scipy(variants[0])  # now the most recently used
            for variant in variants[3:]:
                solve_lp_scipy(variant)
            assert cache.stats()["solutions"] == 3
            assert cache.solution_hits == 1
            solve_lp_scipy(variants[0])  # survived: it was used last
            assert cache.solution_hits == 2
            solve_lp_scipy(variants[1])  # evicted first
            assert cache.solution_hits == 2
        assert cache.stats()["solutions"] == 3

    def test_nothing_is_memoized_without_an_active_cache(self, line3):
        cache = LPBuildCache()
        instance = build_lp(SteadyStateProblem(line3))
        first = solve_lp_scipy(instance)
        second = solve_lp_scipy(instance)
        assert first.x is not second.x
        assert first.x.tobytes() == second.x.tobytes()
        assert cache.stats()["solutions"] == 0
        with use_build_cache(cache):
            solve_lp_scipy(instance)
        assert cache.stats()["solutions"] == 1 and cache.solution_hits == 0

    def test_a_failed_solve_is_not_memoized(self, line3):
        from repro.util.errors import InfeasibleError

        instance = build_lp(SteadyStateProblem(line3))
        lb = instance.lb.copy()
        lb[0] = 1e9  # alpha[0] alone exceeds every capacity
        infeasible = instance.with_bounds(lb, instance.ub)
        cache = LPBuildCache()
        with use_build_cache(cache):
            for _ in range(2):
                with pytest.raises(InfeasibleError):
                    solve_lp_scipy(infeasible)
        assert cache.stats()["solutions"] == 0 and cache.solution_hits == 0


def _pin_every_beta_in_place(instance) -> None:
    """Raw ``lb``/``ub`` writes, with no other call on the instance."""
    betas = [instance.index.beta(*pair) for pair in instance.index.beta_pairs]
    instance.lb[betas] = 0.0
    instance.ub[betas] = 0.0


class TestInPlaceBoundWrites:
    """HiGHS and its memo read ``lb``/``ub`` at solve time: an in-place
    pin after a solve is solved as pinned, never as the old box (das2,
    scenario seed 0: the relaxation is worth 86.4, with every beta
    pinned to 0 it is worth 70)."""

    @staticmethod
    def _reference(instance):
        """A HiGHS solve of a ``with_bounds`` copy, with no memo."""
        copy = instance.with_bounds(instance.lb.copy(), instance.ub.copy())
        return solve_lp_scipy(copy)

    def test_in_place_pin_is_seen_by_the_next_solve(self):
        instance = build_lp(build_scenario("das2", rng=0))
        assert solve_lp_scipy(instance).value == pytest.approx(86.4)
        _pin_every_beta_in_place(instance)
        pinned = solve_lp_scipy(instance)
        reference = self._reference(instance)
        assert pinned.value == reference.value == pytest.approx(70.0)
        assert pinned.x.tobytes() == reference.x.tobytes()

    def test_in_place_pin_under_a_build_cache(self):
        problem = build_scenario("das2", rng=0)
        cache = LPBuildCache()
        with use_build_cache(cache):
            instance = build_lp(problem)
            assert solve_lp_scipy(instance).value == pytest.approx(86.4)
            _pin_every_beta_in_place(instance)
            pinned = solve_lp_scipy(instance)
            copied = solve_lp_scipy(instance.fresh_copy())
        reference = self._reference(instance)  # outside the cache
        assert pinned.value == reference.value == pytest.approx(70.0)
        assert copied.value == reference.value
        assert pinned.x.tobytes() == copied.x.tobytes() == reference.x.tobytes()
        assert cache.stats()["solutions"] == 2 and cache.solution_hits == 1
