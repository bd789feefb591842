"""Online re-scheduling subsystem: incremental re-solve vs from-scratch.

PR 9 keeps a solved steady-state program *current* while the platform
drifts: every :class:`~repro.dynamic.events.PlatformEvent` is classified
(RHS-only / bound-only / structural), applied in place to a live
:class:`~repro.lp.session.LPSession`, and re-solved from the carried
basis — with a from-scratch oracle re-solving the identical mutated
instance cold after every event. This benchmark is the regression gate
for that subsystem:

* the incremental answer must be **bitwise-identical** to the oracle's
  at every event, across **every registered event-trace family** (the
  gate enumerates the scenario registry, so a newly registered family
  is gated automatically) on ``table1-small``, and for the drift and
  failure families also on ``table1-medium`` (K=15, the platform family
  perfbench's online-drift workload times);
* the oracle only observes: the same run with ``check_oracle=False``
  reproduces the identical report ``state_dict``;
* deterministic work counts, next to the timings: every RHS or bound
  event takes exactly **one** session solve, and no token read falls
  back to a re-solve and no event is a near-tie, on every family;
* on the drift family — the RHS fast path's home turf — the warm path
  must spend at least **40% fewer simplex iterations** than the
  from-scratch oracle;
* replaying the same scenario/trace pair from a fresh solver must
  reproduce the identical report ``state_dict`` (the saved-trace
  replay contract).

Results land in ``BENCH_online.json`` (repo root) so the perf
trajectory is machine-trackable from this PR on.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro import DynamicOptions, Solver, SolverConfig, scenario_registry
from repro.lp.basis_lu import LUBasis

from benchmarks.conftest import banner, full_scale

#: minimum drift-family iteration reduction the warm path must deliver
MIN_DRIFT_REDUCTION = 0.40
DRIFT_FAMILY = "drift-heavy"
SCENARIO = "table1-small"
#: perfbench's online-drift platform family, gated for these families
MEDIUM_SCENARIO = "table1-medium"
MEDIUM_FAMILIES = ("drift-heavy", "failure-storm")

_OUT = Path(__file__).resolve().parents[1] / "BENCH_online.json"


def _run(family: str, seed: int, scenario: str = SCENARIO, check_oracle: bool = True):
    config = SolverConfig(
        dynamic=DynamicOptions(replay=False, check_oracle=check_oracle)
    )
    return Solver(config).run_online(scenario, family, rng=seed)


@contextmanager
def _counting_factorizations():
    """Count the LU factorizations (basis loads and refactorizations)
    made inside the block."""
    count = [0]
    factorize = LUBasis._factorize

    def counted(self):
        count[0] += 1
        factorize(self)

    LUBasis._factorize = counted
    try:
        yield count
    finally:
        LUBasis._factorize = factorize


def _sweep(scenario: str, families, seeds) -> dict:
    out = {"scenario": scenario, "seeds": list(seeds), "families": {}}
    for family in families:
        row = {
            "warm_iterations": 0,
            "oracle_iterations": 0,
            "n_events": 0,
            "oracle_match_runs": 0,
            "runs": 0,
            "by_classification": {},
            "mean_reoptimize_seconds": 0.0,
            "replay_exact": True,
            "observes_only": True,
            "warm_solves": 0,
            "lu_factorizations": 0,
            "read_fallbacks": 0,
            "near_ties": 0,
            "multi_solve_rhs_bounds_events": 0,
        }
        for seed in seeds:
            report = _run(family, seed, scenario)
            summary = report.summary()
            assert summary["all_oracle_match"] is True, (
                f"bitwise oracle mismatch: {scenario} family={family} seed={seed}"
            )
            # The production configuration (no oracle) measures the warm
            # path's work alone and must reproduce the checked run.
            with _counting_factorizations() as factorizations:
                production = _run(family, seed, scenario, check_oracle=False)
            row["observes_only"] &= production.state_dict() == report.state_dict()
            row["runs"] += 1
            row["oracle_match_runs"] += 1
            row["warm_iterations"] += summary["warm_iterations"]
            row["oracle_iterations"] += summary["oracle_iterations"]
            row["n_events"] += summary["n_events"]
            row["mean_reoptimize_seconds"] += summary["mean_reoptimize_seconds"]
            row["warm_solves"] += production.summary()["warm_solves"]
            row["lu_factorizations"] += factorizations[0]
            row["read_fallbacks"] += (
                summary["read_fallbacks"] + production.summary()["read_fallbacks"]
            )
            row["near_ties"] += summary["near_ties"]
            row["multi_solve_rhs_bounds_events"] += sum(
                r.warm_solves != 1
                for checked in (report, production)
                for r in checked.records
                if r.classification in ("rhs", "bounds")
            )
            for cls, count in summary["by_classification"].items():
                row["by_classification"][cls] = (
                    row["by_classification"].get(cls, 0) + count
                )
        # The replay contract: a fresh solver on the same names + rng
        # reproduces the identical fingerprint.
        row["replay_exact"] = (
            _run(family, seeds[0], scenario).state_dict()
            == _run(family, seeds[0], scenario).state_dict()
        )
        n = max(1, row["n_events"])
        row["mean_reoptimize_seconds"] /= max(1, row["runs"])
        row["iteration_reduction"] = 1.0 - (
            row["warm_iterations"] / row["oracle_iterations"]
        )
        row["solves_per_event"] = row["warm_solves"] / n
        row["pivots_per_event"] = row["warm_iterations"] / n
        # over the whole production run, initial solve included
        row["lu_factorizations_per_event"] = row["lu_factorizations"] / n
        out["families"][family] = row
    return out


def _print(data: dict) -> None:
    print(f"{data['scenario']}, seeds {data['seeds']}")
    print(f"{'family':>14} {'events':>7} {'iters cold':>11} "
          f"{'iters warm':>11} {'saved':>7} {'ms/event':>9} {'bitwise':>8} "
          f"{'solves/ev':>10} {'pivots/ev':>10} {'LU/ev':>6} "
          f"{'fallbacks':>10} {'near-ties':>10}")
    for family, row in data["families"].items():
        print(f"{family:>14} {row['n_events']:>7} "
              f"{row['oracle_iterations']:>11} {row['warm_iterations']:>11} "
              f"{row['iteration_reduction']:>6.0%} "
              f"{1e3 * row['mean_reoptimize_seconds']:>9.2f} "
              f"{row['oracle_match_runs']}/{row['runs']:>4} "
              f"{row['solves_per_event']:>10.2f} {row['pivots_per_event']:>10.2f} "
              f"{row['lu_factorizations_per_event']:>6.2f} "
              f"{row['read_fallbacks']:>10} {row['near_ties']:>10}")


def _sweep_all(families, seeds) -> dict:
    return {
        "small": _sweep(SCENARIO, families, seeds),
        "medium": _sweep(MEDIUM_SCENARIO, MEDIUM_FAMILIES, seeds[:1]),
    }


def test_online_regression(benchmark):
    families = scenario_registry().names("events")
    assert DRIFT_FAMILY in families
    assert set(MEDIUM_FAMILIES) <= set(families)
    seeds = list(range(6)) if full_scale() else list(range(3))
    data = benchmark.pedantic(
        _sweep_all, args=(families, seeds), rounds=1, iterations=1
    )

    banner(
        "PR 9 / online re-scheduling: incremental LP re-solve vs oracle",
        "Every event mutates the live session in place; the carried basis "
        "must cut simplex work while staying bitwise-equal to a cold solve.",
    )
    _print(data["small"])
    _print(data["medium"])
    drift = data["small"]["families"][DRIFT_FAMILY]
    print(f"drift-family iteration reduction "
          f"{drift['iteration_reduction']:.0%} "
          f"(gate: >={MIN_DRIFT_REDUCTION:.0%})")

    payload = {
        "bench": "online",
        "full_scale": full_scale(),
        "min_drift_reduction_gate": MIN_DRIFT_REDUCTION,
        "results": data["small"],
        "medium": data["medium"],
    }
    _OUT.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"wrote {_OUT.name}")

    # Regression gates.
    for scale in ("small", "medium"):
        for family, row in data[scale]["families"].items():
            where = f"{data[scale]['scenario']} {family}"
            assert row["oracle_match_runs"] == row["runs"], where
            assert row["replay_exact"] is True, f"replay drifted: {where}"
            assert row["observes_only"] is True, f"oracle steered: {where}"
            assert row["warm_iterations"] <= row["oracle_iterations"], where
            assert row["multi_solve_rhs_bounds_events"] == 0, (
                f"an RHS/bound event took more than one solve: {where}"
            )
            assert row["read_fallbacks"] == 0, f"token read fell back: {where}"
            assert row["near_ties"] == 0, f"near-tie: {where}"
    assert drift["iteration_reduction"] >= MIN_DRIFT_REDUCTION, (
        f"drift reduction {drift['iteration_reduction']:.1%} below gate"
    )
