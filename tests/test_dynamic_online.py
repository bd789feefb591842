"""OnlineScheduler: event classification, incremental mutation paths,
structural rebuilds, the facade/CLI surface.

The layer contract under test: every event maps to exactly one of the
three LP-mutation classes (``rhs`` / ``bounds`` / ``structural``), the
live session absorbs it in place, and the answer after every event is
bitwise the from-scratch oracle's — warm-starting buys pivots, never a
float.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import (
    DynamicOptions,
    Solver,
    SolverConfig,
    SolverError,
    SteadyStateProblem,
)
from repro.dynamic import (
    DisruptionReport,
    EventTrace,
    EventTraceError,
    OnlineScheduler,
    PlatformEvent,
    drift_trace,
)
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.session import LPSession
from repro.lp.solution import LPSolution
from repro.platform import line_platform

FAST = DynamicOptions(replay=False)


@pytest.fixture
def problem(line3):
    return SteadyStateProblem(line3, objective="maxmin")


def _scheduler(problem, **kwargs):
    kwargs.setdefault("options", FAST)
    return OnlineScheduler(problem, **kwargs)


def _ev(kind, target, **kw):
    time = kw.pop("time", 1.0)
    return PlatformEvent(time=time, kind=kind, target=target, **kw)


class TestClassification:
    def test_drift_is_rhs_only(self, problem):
        sched = _scheduler(problem)
        assert sched.step(_ev("cpu-drift", 0, factor=0.5)).classification == "rhs"
        assert sched.step(_ev("bw-drift", 1, factor=2.0)).classification == "rhs"

    def test_node_failure_is_rhs_only(self, problem):
        sched = _scheduler(problem)
        assert sched.step(_ev("node-fail", 2)).classification == "rhs"
        assert sched.failed_nodes == (2,)
        assert sched.step(_ev("node-recover", 2)).classification == "rhs"
        assert sched.failed_nodes == ()

    def test_link_failure_is_bounds_only(self, problem):
        sched = _scheduler(problem)
        assert sched.step(_ev("link-fail", "seg0")).classification == "bounds"
        assert sched.failed_links == ("seg0",)
        assert sched.step(_ev("link-recover", "seg0")).classification == "bounds"

    def test_churn_is_structural(self, problem):
        sched = _scheduler(problem)
        assert sched.step(_ev("app-depart", 1)).classification == "structural"
        record = sched.step(_ev("app-arrive", 1, payoff=1.5, time=2.0))
        assert record.classification == "structural"
        assert sched.payoffs[1] == 1.5

    def test_every_record_matches_oracle_bitwise(self, problem):
        sched = _scheduler(problem)
        for event in [
            _ev("cpu-drift", 0, factor=0.7),
            _ev("link-fail", "seg1"),
            _ev("app-depart", 2, time=2.0),
            _ev("link-recover", "seg1", time=3.0),
            _ev("app-arrive", 2, payoff=0.8, time=4.0),
        ]:
            record = sched.step(event)
            assert record.oracle_match is True
            assert record.value == record.oracle_value


class TestMutationPaths:
    def test_cpu_drift_moves_the_bound(self, problem):
        sched = _scheduler(problem)
        before = sched.value
        sched.step(_ev("cpu-drift", 0, factor=0.25))
        sched.step(_ev("cpu-drift", 1, factor=0.25))
        sched.step(_ev("cpu-drift", 2, factor=0.25))
        assert sched.value < before

    def test_drift_factors_compound(self, problem):
        sched = _scheduler(problem)
        sched.step(_ev("cpu-drift", 0, factor=0.5))
        sched.step(_ev("cpu-drift", 0, factor=0.5))
        assert sched.platform.speeds[0] == pytest.approx(25.0)

    def test_link_failure_pins_and_recovery_restores_bitwise(self, problem):
        sched = _scheduler(problem)
        initial = sched.value
        initial_sha = sched.initial_solution_sha
        record = sched.step(_ev("link-fail", "seg0"))
        assert len(sched._session.pinned_variables) > 0
        assert record.value <= initial
        # Every transfer routed through the dead link is pinned to zero.
        alloc = sched.allocation
        for (k, l) in problem.platform.routes_through("seg0"):
            assert alloc.alpha[k, l] == 0.0
        # Recovery restores the exact original instance: same floats.
        record = sched.step(_ev("link-recover", "seg0", time=2.0))
        assert sched._session.pinned_variables == ()
        assert record.value == initial
        assert record.solution_sha == initial_sha

    def test_node_failure_zeroes_and_recovery_restores_bitwise(self, problem):
        sched = _scheduler(problem)
        initial = sched.value
        initial_sha = sched.initial_solution_sha
        sched.step(_ev("node-fail", 0))
        assert sched.platform.speeds[0] == 0.0
        assert sched.value < initial
        record = sched.step(_ev("node-recover", 0, time=2.0))
        assert record.value == initial
        assert record.solution_sha == initial_sha

    def test_drift_on_failed_node_lands_after_recovery(self, problem):
        sched = _scheduler(problem)
        sched.step(_ev("node-fail", 0))
        sched.step(_ev("cpu-drift", 0, factor=0.5))
        assert sched.platform.speeds[0] == 0.0  # still down
        sched.step(_ev("node-recover", 0, time=2.0))
        assert sched.platform.speeds[0] == pytest.approx(50.0)

    def test_structural_rebuild_preserves_lifetime_stats(self, problem):
        sched = _scheduler(problem)
        sched.step(_ev("cpu-drift", 0, factor=0.9))
        before = sched.session_stats["iterations"]
        sched.step(_ev("app-depart", 1, time=2.0))
        assert sched.session_stats["iterations"] > before

    def test_overlapping_link_failures_refcount_pins(self, problem):
        sched = _scheduler(problem)
        sched.step(_ev("link-fail", "seg0"))
        sched.step(_ev("link-fail", "seg1"))
        both = set(sched._session.pinned_variables)
        sched.step(_ev("link-recover", "seg0", time=2.0))
        # (0, 2) and (2, 0) route through both segments: their pins must
        # survive seg0's recovery because seg1 is still down.
        remaining = set(sched._session.pinned_variables)
        assert remaining
        assert remaining < both
        sched.step(_ev("link-recover", "seg1", time=3.0))
        assert sched._session.pinned_variables == ()


class TestTokenRead:
    """One solve plus one factorized read of the support token per
    event, with a counted re-solve when the read does not hold."""

    def test_one_solve_per_event(self, problem):
        sched = _scheduler(problem)
        for event in [
            _ev("cpu-drift", 0, factor=0.7),
            _ev("node-fail", 1, time=2.0),
            _ev("link-fail", "seg0", time=3.0),
            _ev("app-depart", 2, time=4.0),
        ]:
            record = sched.step(event)
            assert record.warm_solves == 1
            assert record.read_fallbacks == 0
        fallbacks = sched.metrics.counter("repro_online_read_fallbacks_total")
        assert fallbacks.value == 0

    @pytest.mark.parametrize("broken", ["infeasible", "value"])
    def test_read_fallback_is_counted_and_matches_highs(
        self, problem, monkeypatch, broken
    ):
        sched = _scheduler(problem)
        real_read = LPSession.read

        def bad_read(session, basis):
            if broken == "infeasible":
                return None
            read = real_read(session, basis)
            return LPSolution(
                x=read.x, value=read.value * (1.0 + 1e-6), index=read.index
            )

        monkeypatch.setattr(LPSession, "read", bad_read)
        report = sched.run(
            EventTrace(seed=0, events=(_ev("cpu-drift", 0, factor=0.5),))
        )
        (record,) = report.records
        # both sides re-solved from their token and still agree bitwise
        assert record.read_fallbacks == 2
        assert record.warm_solves == 2
        assert record.oracle_match is True
        assert report.summary()["read_fallbacks"] == 2
        counter = sched.metrics.counter("repro_online_read_fallbacks_total")
        assert counter.value == 2
        reference = solve_lp_scipy(
            build_lp(SteadyStateProblem(sched.platform, sched.payoffs, "maxmin"))
        )
        assert record.value == pytest.approx(reference.value, rel=1e-9)

    def test_warm_and_oracle_points_of_one_vertex_share_a_token(self):
        problem = SteadyStateProblem(
            line_platform(5, speed=100.0, g=50.0, bw=10.0, max_connect=4),
            objective="maxmin",
        )
        sched = _scheduler(problem)
        sched.step(_ev("node-fail", 0))
        sched.step(_ev("cpu-drift", 1, factor=0.5, time=2.0))
        warm = sched._session.solve()  # from the carried basis
        cold = sched._oracle.solve(warm_basis=None)
        # one vertex, reached through two different bases
        assert not np.array_equal(
            sched._session.last_basis.columns, sched._oracle.last_basis.columns
        )
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        noise = 1e-12 * np.random.default_rng(0).standard_normal(warm.x.shape)
        tokens = [
            sched._support_token(x) for x in (warm.x, cold.x, warm.x + noise)
        ]
        for token in tokens[1:]:
            assert np.array_equal(token.columns, tokens[0].columns)
            assert np.array_equal(token.at_upper, tokens[0].at_upper)
        warm_read = sched._session.read(tokens[0])
        cold_read = sched._oracle.read(tokens[1])
        assert np.array_equal(warm_read.x, cold_read.x)
        assert warm_read.value == pytest.approx(warm.value, rel=1e-12)

    def test_near_ties_are_counted_never_hidden(self, problem):
        sched = _scheduler(problem)
        record = sched.step(_ev("cpu-drift", 0, factor=0.5))
        assert record.near_tie is False
        tie = dataclasses.replace(
            record, oracle_match=False, oracle_value=record.value
        )
        far = dataclasses.replace(
            record, oracle_match=False, oracle_value=2.0 * record.value
        )
        assert tie.near_tie is True
        assert far.near_tie is False
        report = DisruptionReport(
            trace=EventTrace(seed=0, events=()),
            records=(record, tie, far),
            initial_value=sched.initial_value,
            initial_solution_sha=sched.initial_solution_sha,
        )
        summary = report.summary()
        assert summary["near_ties"] == 1
        assert summary["all_oracle_match"] is False
        assert sched.metrics.counter("repro_online_near_ties_total").value == 0


class TestEventValidation:
    def test_strict_fail_recover_pairing(self, problem):
        sched = _scheduler(problem)
        sched.step(_ev("node-fail", 0))
        with pytest.raises(EventTraceError, match="already down"):
            sched.step(_ev("node-fail", 0))
        with pytest.raises(EventTraceError, match="not down"):
            sched.step(_ev("link-recover", "seg0"))

    def test_unknown_targets(self, problem):
        sched = _scheduler(problem)
        with pytest.raises(EventTraceError, match="unknown backbone link"):
            sched.step(_ev("link-fail", "seg9"))
        with pytest.raises(EventTraceError, match="clusters"):
            sched.step(_ev("cpu-drift", 7, factor=1.1))

    def test_strict_churn_pairing(self, problem):
        sched = _scheduler(problem)
        with pytest.raises(EventTraceError, match="already hosts"):
            sched.step(_ev("app-arrive", 0, payoff=1.0))
        sched.step(_ev("app-depart", 0))
        with pytest.raises(EventTraceError, match="no live application"):
            sched.step(_ev("app-depart", 0))

    def test_engine_and_options_validation(self, problem):
        with pytest.raises(SolverError, match="DynamicOptions"):
            OnlineScheduler(problem, options={"replay": False})


class TestRunAndReport:
    def test_run_aggregates_every_event(self, problem):
        trace = drift_trace(3, n_events=6, seed=4)
        report = _scheduler(problem).run(trace)
        assert len(report) == 6
        summary = report.summary()
        assert summary["n_events"] == 6
        assert summary["by_classification"]["rhs"] == 6
        assert summary["all_oracle_match"] is True
        assert summary["warm_iterations"] < summary["oracle_iterations"]
        assert report.trace == trace

    def test_state_dict_reproducible_across_fresh_schedulers(self, problem):
        trace = drift_trace(3, n_events=5, seed=8)
        first = _scheduler(problem).run(trace).state_dict()
        second = _scheduler(problem).run(trace).state_dict()
        assert first == second

    def test_warm_and_cold_modes_agree_exactly(self, problem):
        trace = drift_trace(3, n_events=5, seed=6)
        warm = _scheduler(problem, warm_start=True).run(trace)
        cold = _scheduler(problem, warm_start=False).run(trace)
        assert warm.state_dict() == cold.state_dict()
        assert (
            warm.summary()["warm_iterations"]
            < cold.summary()["warm_iterations"]
        )

    def test_replay_populates_simulated_values(self, problem):
        sched = _scheduler(
            problem, options=DynamicOptions(replay=True, sim_periods=2)
        )
        record = sched.step(_ev("cpu-drift", 0, factor=0.8))
        assert record.simulated_value is not None
        assert record.simulated_value >= 0.0

    def test_report_to_dict_is_json_ready(self, problem):
        report = _scheduler(problem).run(drift_trace(3, n_events=2, seed=0))
        wire = json.loads(json.dumps(report.to_dict()))
        assert wire["summary"]["n_events"] == 2
        assert EventTrace.from_dict(wire["trace"]) == report.trace


class TestFacadeAndCli:
    def test_run_online_by_names_is_reproducible(self):
        config = SolverConfig(dynamic=FAST)
        first = Solver(config).run_online("table1-small", "drift-heavy", rng=0)
        second = Solver(config).run_online("table1-small", "drift-heavy", rng=0)
        assert first.summary()["all_oracle_match"] is True
        assert first.state_dict() == second.state_dict()

    def test_run_online_accepts_explicit_trace(self, problem):
        trace = drift_trace(3, n_events=3, seed=1)
        report = Solver(SolverConfig(dynamic=FAST)).run_online(problem, trace)
        assert len(report) == 3
        with pytest.raises(SolverError):
            Solver(SolverConfig(dynamic=FAST)).run_online(
                problem, [("not", "a", "trace")]
            )

    def test_config_validates_and_round_trips_dynamic(self):
        options = DynamicOptions(replay=False, sim_periods=7)
        config = SolverConfig(dynamic=options)
        rebuilt = SolverConfig.from_dict(config.to_dict())
        assert rebuilt.dynamic == options
        with pytest.raises(SolverError, match="DynamicOptions"):
            SolverConfig(dynamic={"replay": False})

    def test_cli_online_smoke(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out_path = tmp_path / "report.json"
        code = main([
            "online", "--scenario", "table1-small", "--events", "drift-heavy",
            "--seed", "3", "--no-replay", "--json", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all bitwise" in out
        data = json.loads(out_path.read_text())
        assert data["summary"]["all_oracle_match"] is True
        assert data["trace"]["kind"] == "event-trace"

    def test_cli_online_replays_saved_trace_file(self, tmp_path, capsys):
        trace = drift_trace(5, n_events=3, seed=2)
        path = trace.save(tmp_path / "trace.json")
        from repro.experiments.cli import main

        code = main([
            "online", "--scenario", "table1-small", "--events", str(path),
            "--no-replay",
        ])
        assert code == 0
        assert "all bitwise" in capsys.readouterr().out
