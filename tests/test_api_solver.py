"""API-equivalence suite for the :mod:`repro.api` facade.

Pins the facade's core contract: ``Solver(cfg).solve`` is
**bitwise-equal** to the bare heuristic's ``run`` under
``cfg.method_kwargs()`` across every registered method and both
objectives, with or without cross-call state reuse; ``solve_many``
equals a loop of single solves and ``sweep`` a sweep of the named
scenario. Plus ``SolverConfig`` validation (strict flag and count
types included), ``to_dict``/``from_dict`` round-trips, the strict
unknown-option rejection, and ``method_info()`` metadata consistency.
"""

import doctest
from dataclasses import fields

import numpy as np
import pytest

from repro import (
    RetryPolicy,
    SolveReport,
    Solver,
    SolverConfig,
    SolverError,
    method_info,
)
from repro.api.config import (
    GreedyOptions,
    IteratedLPRGOptions,
    LPRROptions,
    MethodOptions,
    options_class_for,
)
from repro.heuristics.base import (
    REMOVED_OPTIONS,
    available_methods,
    get_heuristic,
)


def assert_same_result(a, b):
    """Bitwise comparison of the deterministic result fields."""
    assert a.method == b.method
    assert a.objective == b.objective
    assert a.value == b.value
    assert a.n_lp_solves == b.n_lp_solves
    if a.allocation is None:
        assert b.allocation is None
    else:
        assert np.array_equal(a.allocation.alpha, b.allocation.alpha)
        assert np.array_equal(a.allocation.beta, b.allocation.beta)


class TestSolveEquivalence:
    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_facade_matches_legacy_all_methods(
        self, problem_factory, method, objective
    ):
        # K=4 keeps the exact solvers (milp/bnb) cheap enough to sweep.
        problem = problem_factory(seed=1, n_clusters=4, objective=objective)
        config = SolverConfig(method=method)
        raw = get_heuristic(method).run(
            problem, rng=7, **config.method_kwargs()
        )
        facade = Solver(config).solve(problem, rng=7)
        assert_same_result(raw, facade)

    @pytest.mark.parametrize("method", ["lprg", "lprr", "lprg-it"])
    def test_reused_solver_bitwise_equal_to_fresh(self, problem_factory, method):
        problem = problem_factory(seed=2, n_clusters=5)
        reused = Solver.for_method(method)
        first = reused.solve(problem, rng=3)
        again = reused.solve(problem, rng=3)  # warm template + dense cache
        fresh = Solver.for_method(method).solve(problem, rng=3)
        assert_same_result(first, again)
        assert_same_result(first, fresh)
        assert reused.state.lp_cache.build_hits > 0

    def test_seed_policy_matches_per_call_rng(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4)
        configured = Solver(SolverConfig(method="lprr", seed=11)).solve(problem)
        explicit = Solver.for_method("lprr").solve(problem, rng=11)
        assert_same_result(configured, explicit)

    def test_objective_override(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4, objective="maxmin")
        report = Solver(SolverConfig(method="greedy", objective="sum")).solve(
            problem
        )
        assert report.objective == "sum"
        raw = get_heuristic("greedy").run(
            problem.with_objective("sum"),
            **SolverConfig(method="greedy").method_kwargs(),
        )
        assert_same_result(report, raw)

    def test_report_shape(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4)
        solver = Solver.for_method("lprr")
        report = solver.solve(problem, rng=0)
        assert isinstance(report, SolveReport)
        assert report.config is solver.config
        assert report.cache_stats["cold_builds"] >= 1
        assert report.lp_stats is not None  # session-backed at K=4
        assert "lprr" in repr(report)  # HeuristicResult repr preserved


class TestBatchAndSweepEquivalence:
    def test_solve_many_matches_legacy_and_loop(self, problem_factory):
        """``solve_many`` equals a loop of single solves, instance ``i``
        under the ``i``-th spawn child of the batch seed."""
        from repro.util.rng import spawn_seed_sequences

        problems = [problem_factory(seed=s, n_clusters=4) for s in range(4)]
        batch = Solver.for_method("lprr").solve_many(problems, rng=5)
        seeds = spawn_seed_sequences(5, len(problems))
        for problem, seed, report in zip(problems, seeds, batch):
            loose = Solver.for_method("lprr").solve(
                problem, rng=np.random.default_rng(seed)
            )
            assert_same_result(loose, report)

    def test_solve_many_batch_reuses_state(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=4)
        solver = Solver.for_method("lprg")
        reports = solver.solve_many([problem] * 6, rng=0)
        assert len(reports) == 6
        assert solver.state.lp_cache.cold_builds == 1
        assert solver.state.lp_cache.build_hits == 5
        # Reports describe the owning batch solver, not per-task shims.
        for report in reports:
            assert report.config is solver.config
            assert report.cache_stats["cold_builds"] == 1
            assert report.cache_stats["build_hits"] == 5

    def test_sweep_matches_legacy_run_sweep(self):
        """A default sweep equals a sweep of the named ``calibrated``
        scenario."""
        from repro.experiments import sample_settings

        settings = sample_settings(2, rng=4, k_values=[5])
        facade = Solver(SolverConfig()).sweep(settings, n_platforms=1, rng=9)
        named = Solver(SolverConfig()).sweep(
            settings, scenario="calibrated", n_platforms=1, rng=9
        )

        def key(rows):
            return [
                (r.setting, r.replicate, r.objective, r.method, r.value,
                 r.lp_value, r.n_lp_solves)
                for r in rows
            ]

        assert key(facade) == key(named)


class TestOptionRejection:
    """Unknown options raise instead of being silently ignored."""

    def test_unknown_option_suggests_nearest(self):
        with pytest.raises(SolverError, match="eager_integer_fixing"):
            Solver.for_method("lprr", eager_integer_fixng=True)

    def test_unknown_option_lists_valid(self):
        with pytest.raises(SolverError, match="valid options"):
            Solver.for_method("greedy", selektion="literal")

    def test_option_of_other_method_rejected(self):
        with pytest.raises(SolverError, match="max_iters"):
            Solver.for_method("greedy", max_iters=3)

    def test_solve_many_validates_too(self):
        with pytest.raises(SolverError, match="did you mean"):
            Solver.for_method("lprr", jobs=2, chunk_size=1, wam_start=False)

    def test_valid_options_still_flow(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4)
        solver = Solver.for_method(
            "lprr", eager_integer_fixing=True, warm_start=False,
            lp_backend="session",
        )
        report = solver.solve(problem, rng=0)
        assert report.allocation is not None
        assert report.meta["lp_backend"] == "session"

    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_run_rejects_misspelled_and_removed_options(
        self, problem_factory, method
    ):
        """``Heuristic.run`` is as strict as the facade: a typo or a
        removed option raises instead of being silently ignored."""
        heuristic = get_heuristic(method)
        problem = problem_factory(seed=0, n_clusters=3)
        with pytest.raises(SolverError, match="unknown option"):
            heuristic.run(problem, rng=0, eager_integer_fixng=True)
        with pytest.raises(SolverError, match="'lp_engine' was removed"):
            heuristic.run(problem, rng=0, lp_engine="revised")

    def test_run_rejects_bad_lp_backend_and_lprg_it_warm_start(
        self, problem_factory
    ):
        problem = problem_factory(seed=0, n_clusters=3)
        with pytest.raises(SolverError, match="lp_backend"):
            get_heuristic("lprr").run(problem, rng=0, lp_backend="auto")
        with pytest.raises(SolverError, match="unknown option 'warm_start'"):
            get_heuristic("lprg-it").run(problem, warm_start=False)

    def test_removed_config_fields_named_at_every_entry_point(
        self, problem_factory
    ):
        """``lp_engine``/``share_bases`` are reported as removed — not
        answered with a did-you-mean for a surviving field."""
        problem = problem_factory(seed=0, n_clusters=3)
        for name in sorted(REMOVED_OPTIONS):
            for build in (
                lambda: SolverConfig.from_dict({"method": "lprr", name: True}),
                lambda: SolverConfig.from_dict(
                    {"method": "lprr", "options": {name: True}}
                ),
                lambda: SolverConfig.for_method("lprr", **{name: True}),
                lambda: Solver.for_method("lprr", **{name: True}),
                lambda: get_heuristic("lprr").run(problem, **{name: True}),
            ):
                with pytest.raises(SolverError, match=f"'{name}' was removed"):
                    build()


class TestSolverConfig:
    def test_alias_canonicalised(self):
        assert SolverConfig(method="G").method == "greedy"
        assert SolverConfig.for_method("branch-and-bound").method == "bnb"

    def test_unknown_method_is_value_error(self):
        with pytest.raises(ValueError):
            SolverConfig(method="quantum-annealing")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(objective="fairness")

    def test_bad_lp_backend(self):
        with pytest.raises(SolverError, match="lp_backend"):
            SolverConfig(lp_backend="cplex")
        with pytest.raises(SolverError, match="lp_backend"):
            SolverConfig(lp_backend="auto")  # the removed size policy

    def test_bad_jobs_and_chunk(self):
        with pytest.raises(SolverError):
            SolverConfig(jobs=0)
        with pytest.raises(SolverError):
            SolverConfig(chunk_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("warm_start", "false"),
            ("warm_start", 0),
            ("resume", "false"),
            ("stream", "false"),
            ("jobs", "2"),
            ("jobs", 2.0),
            ("jobs", True),
            ("chunk_size", "2"),
            ("shards", "2"),
        ],
    )
    def test_flags_and_counts_are_type_checked(self, field, value):
        """A JSON ``"false"`` is truthy and ``"2"`` is no count: each is
        refused naming its field, at every way of building a config."""
        for build in (
            lambda: SolverConfig(**{field: value}),
            lambda: SolverConfig.from_dict({field: value}),
            lambda: Solver.for_method("lprr", **{field: value}),
        ):
            with pytest.raises(SolverError, match=repr(field)):
                build()

    def test_numpy_counts_are_stored_as_int(self):
        config = SolverConfig(jobs=np.int64(2), chunk_size=np.int32(3))
        assert type(config.jobs) is int and config.jobs == 2
        assert type(config.chunk_size) is int and config.chunk_size == 3

    def test_retry_quarantine_is_type_checked(self):
        with pytest.raises(ValueError, match="'quarantine'"):
            RetryPolicy(quarantine="false")
        with pytest.raises(ValueError, match="'quarantine'"):
            SolverConfig.from_dict({"retry": {"quarantine": "false"}})
        assert RetryPolicy(quarantine=False).quarantine is False

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SolverError, match="checkpoint"):
            SolverConfig(resume=True)

    def test_bad_seed_type(self):
        with pytest.raises(SolverError, match="seed"):
            SolverConfig(seed="42")

    def test_options_default_per_method(self):
        assert isinstance(SolverConfig(method="lprr").options, LPRROptions)
        assert isinstance(SolverConfig(method="greedy").options, GreedyOptions)
        assert type(SolverConfig(method="lpr").options) is MethodOptions

    def test_wrong_options_type_rejected(self):
        with pytest.raises(SolverError, match="GreedyOptions"):
            SolverConfig(method="greedy", options=LPRROptions())

    def test_bad_selection_value(self):
        with pytest.raises(SolverError, match="selection"):
            SolverConfig(method="greedy", options=GreedyOptions(selection="magic"))

    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_to_from_dict_round_trip(self, method):
        config = SolverConfig.for_method(
            method, seed=3, jobs=2, lp_backend="scipy", warm_start=False
        )
        clone = SolverConfig.from_dict(config.to_dict())
        assert clone == config

    def test_round_trip_with_method_options(self):
        config = SolverConfig.for_method(
            "lprg-it", max_iters=7, checkpoint="/tmp/x.ckpt", resume=True
        )
        clone = SolverConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.options == IteratedLPRGOptions(max_iters=7)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SolverError, match="did you mean"):
            SolverConfig.from_dict({"method": "lprg", "job": 4})

    def test_method_kwargs_gating(self):
        assert SolverConfig(method="greedy").method_kwargs() == {
            "selection": "intuition"
        }
        lprr = SolverConfig.for_method("lprr", warm_start=False)
        assert lprr.method_kwargs() == {
            "eager_integer_fixing": False,
            "warm_start": False,
            "lp_backend": "session",
        }
        assert SolverConfig(method="lprg-it").method_kwargs() == {
            "max_iters": 4,
            "lp_backend": "session",
        }
        assert SolverConfig(method="bnb").method_kwargs() == {
            "max_nodes": 10_000,
            "warm_start": True,
        }


class TestMethodInfo:
    def test_covers_available_methods(self):
        info = method_info()
        assert set(info) == set(available_methods())

    def test_metadata_content(self):
        info = method_info()
        assert info["greedy"].uses_lp is False
        assert info["lprr"].deterministic is False
        assert info["lprr"].uses_lp is True
        assert "time_limit" in info["milp"].options
        assert "g" in info["greedy"].aliases
        assert info["lprg"].description
        assert info["lp"].as_dict()["uses_lp"] is True

    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_options_classes_consistent_with_registry(self, method):
        """Every declared run option is reachable through the config:
        either a typed sub-config field or a config-level LP knob."""
        heuristic = get_heuristic(method)
        opt_fields = {f.name for f in fields(options_class_for(method))}
        config_level = {"warm_start", "lp_backend"} & set(heuristic.option_names)
        assert opt_fields | config_level == set(heuristic.option_names)

    def test_cli_list_methods(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list-methods"]) == 0
        out = capsys.readouterr().out
        assert "lprg" in out and "eager_integer_fixing" in out

    def test_cli_list_flag_with_subcommand_rejected(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--list-methods", "grid"])
        assert exc.value.code == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestApiDoctests:
    @pytest.mark.parametrize(
        "module_name", ["repro", "repro.heuristics.base"]
    )
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0
        assert result.attempted > 0
