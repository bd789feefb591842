"""Serial/parallel equivalence of the campaign subsystem.

The contract under test: ``jobs`` (and chunking) change wall-clock time
only — ``Solver.solve_many`` and ``Solver.sweep`` return
*bitwise-identical* values, allocations and orderings for any worker
count, for every registered method, across seeds and both objectives.
Runtime fields are the one sanctioned difference (wall clocks are not
deterministic).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PlatformSpec,
    Solver,
    SolverConfig,
    SteadyStateProblem,
    generate_platform,
)
from repro.experiments import run_setting, sample_settings
from repro.heuristics.base import available_methods
from repro.util.rng import spawn_seed_sequences

from tests.strategies import problems

ALL_METHODS = available_methods()


def _fixed_problems() -> list[SteadyStateProblem]:
    """Two platforms x two objectives: a small but non-trivial batch.

    The first platform object is shared by two problems, exercising the
    shared LP-index cache path of ``solve_many``.
    """
    spec = PlatformSpec(
        n_clusters=4, connectivity=0.6, heterogeneity=0.4,
        mean_g=250.0, mean_bw=30.0, mean_max_connect=10.0,
        speed_heterogeneity=0.4,
    )
    p1 = generate_platform(spec, rng=11)
    p2 = generate_platform(spec, rng=22)
    return [
        SteadyStateProblem(p1, objective="maxmin"),
        SteadyStateProblem(p1, objective="sum"),
        SteadyStateProblem(p2, objective="maxmin"),
        SteadyStateProblem(p2, objective="sum"),
    ]


def assert_results_identical(a, b):
    """Bitwise equality of two HeuristicResult lists, modulo runtime."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.method == y.method and x.objective == y.objective
        assert x.value == y.value  # exact float equality, no tolerance
        assert x.n_lp_solves == y.n_lp_solves
        if x.allocation is None:
            assert y.allocation is None
        else:
            assert np.array_equal(x.allocation.alpha, y.allocation.alpha)
            assert np.array_equal(x.allocation.beta, y.allocation.beta)


def assert_rows_identical(a, b):
    """Bitwise equality of two ExperimentRow lists, modulo runtime."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.setting == y.setting
        assert (x.replicate, x.objective, x.method) == (
            y.replicate, y.objective, y.method)
        assert x.value == y.value
        assert x.lp_value == y.lp_value
        assert x.n_lp_solves == y.n_lp_solves


class TestSolveMany:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_parallel_matches_serial_every_method(self, method):
        problems_ = _fixed_problems()
        serial = Solver.for_method(method, jobs=1).solve_many(
            problems_, rng=123
        )
        parallel = Solver.for_method(method, jobs=2).solve_many(
            problems_, rng=123
        )
        assert_results_identical(serial, parallel)

    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_chunking_does_not_change_results(self, chunk_size):
        problems_ = _fixed_problems()
        serial = Solver.for_method("lprr", jobs=1).solve_many(problems_, rng=7)
        chunked = Solver.for_method(
            "lprr", jobs=2, chunk_size=chunk_size
        ).solve_many(problems_, rng=7)
        assert_results_identical(serial, chunked)

    @settings(max_examples=15)
    @given(
        problem=problems(max_clusters=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        method=st.sampled_from(ALL_METHODS),
    )
    def test_batch_matches_individual_solves(self, problem, seed, method):
        """``Solver.solve_many`` is exactly ``Solver.solve`` per problem
        under spawned seeds."""
        solver = Solver.for_method(method)
        batch = solver.solve_many([problem, problem], rng=seed)
        seeds = spawn_seed_sequences(seed, 2)
        direct = [
            Solver.for_method(method).solve(
                problem, rng=np.random.default_rng(s)
            )
            for s in seeds
        ]
        assert_results_identical(batch, direct)

    def test_results_keep_input_order(self):
        problems_ = _fixed_problems()
        results = Solver.for_method("greedy", jobs=2).solve_many(problems_, rng=0)
        assert [r.objective for r in results] == [
            p.objective.name for p in problems_
        ]


class TestRunSweep:
    @pytest.mark.parametrize("objectives", [("maxmin",), ("sum",), ("maxmin", "sum")])
    def test_jobs4_matches_serial(self, objectives):
        settings_ = sample_settings(3, rng=5, k_values=[4, 5])
        kwargs = dict(
            methods=("greedy", "lpr", "lprg"),
            objectives=objectives,
            n_platforms=2,
            rng=5,
        )
        serial = Solver().sweep(settings_, **kwargs)
        parallel = Solver(SolverConfig(jobs=4)).sweep(settings_, **kwargs)
        assert_rows_identical(serial, parallel)

    def test_randomized_method_stream_equivalence(self):
        """LPRR consumes its task RNG: the strongest determinism check."""
        settings_ = sample_settings(2, rng=17, k_values=[4])
        kwargs = dict(
            methods=("greedy", "lprr"),
            objectives=("maxmin", "sum"),
            n_platforms=2,
            rng=17,
        )
        serial = Solver().sweep(settings_, **kwargs)
        parallel = Solver(SolverConfig(jobs=3, chunk_size=1)).sweep(
            settings_, **kwargs
        )
        assert_rows_identical(serial, parallel)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_equivalence_across_seeds(self, seed):
        settings_ = sample_settings(2, rng=seed, k_values=[3, 4])
        kwargs = dict(
            methods=("greedy", "lprg"),
            objectives=("maxmin", "sum"),
            n_platforms=1,
            rng=seed,
        )
        assert_rows_identical(
            Solver().sweep(settings_, **kwargs),
            Solver(SolverConfig(jobs=2)).sweep(settings_, **kwargs),
        )

    def test_runner_seed_derivation_pinned(self):
        """Replicate j of grid point i under root seed s runs under
        ``SeedSequence(s, spawn_key=(i, j))`` — the regression pin the
        serial/parallel determinism guarantee rests on."""
        from repro.experiments.runner import run_replicate

        settings_ = sample_settings(2, rng=5, k_values=[4])
        swept = Solver().sweep(
            settings_, methods=("greedy",), objectives=("sum",),
            n_platforms=2, rng=42,
        )
        manual = []
        for i, setting in enumerate(settings_):
            for j in range(2):
                seed = np.random.SeedSequence(42, spawn_key=(i, j))
                manual.extend(
                    run_replicate(
                        setting, j, methods=("greedy",),
                        objectives=("sum",),
                        rng=np.random.default_rng(seed),
                    )
                )
        assert_rows_identical(swept, manual)

    def test_run_setting_is_a_pure_function_of_its_seed(self):
        """Passing the same generator twice now yields identical rows —
        seed derivation no longer consumes mutable spawn state."""
        gen = np.random.default_rng(3)
        setting = sample_settings(1, rng=0, k_values=[4])[0]
        kwargs = dict(methods=("greedy",), objectives=("sum",), n_platforms=2)
        a = run_setting(setting, rng=gen, **kwargs)
        b = run_setting(setting, rng=gen, **kwargs)
        assert_rows_identical(a, b)

    def test_run_sweep_matches_run_setting_concatenation(self):
        """The engine path reproduces the historical serial definition."""
        settings_ = sample_settings(2, rng=3, k_values=[4, 5])
        swept = Solver().sweep(
            settings_, methods=("greedy",), objectives=("maxmin",),
            n_platforms=2, rng=3,
        )
        manual = []
        for setting, seed in zip(settings_, spawn_seed_sequences(3, 2)):
            manual.extend(
                run_setting(
                    setting, methods=("greedy",), objectives=("maxmin",),
                    n_platforms=2, rng=np.random.default_rng(seed),
                )
            )
        assert_rows_identical(swept, manual)
