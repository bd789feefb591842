"""Warm-started LP re-solve subsystem: cold vs warm on the K^2 hot path.

The paper's Figure 7 prices LPRR at ~K(K-1) LP solves; PR 2 makes every
one of those solves share a session (in-place mutation + optimal-basis
carry, :mod:`repro.lp.session`). This benchmark is the
regression gate for that subsystem:

* warm LPRR must produce **bitwise-identical allocations** to the cold
  reference path on the whole sweep (same seeds -> same betas -> same
  roundings -> the shared cold final solve yields the same bytes) —
  including K >= 8, where the revised engine's canonical-vertex rule
  pins the betas of degenerate optima (not their alphas);
* the warm chain opens from the support token of the relaxation's HiGHS
  optimum, so every warm LPRR run has **exactly one cold solve**, the
  final reference solve (``n_cold``, recorded per K);
* warm LPRR must spend **strictly fewer simplex iterations** than cold,
  and at least 30% fewer over the sweep;
* the warm session path must beat the cold-HiGHS-per-solve reference
  (``lp_backend="scipy"``) in wall-clock **at every K** — there is no
  K past which the session loses;
* iterated LPRG (incremental ``b_ub`` rewrite instead of platform
  snapshot + full rebuild) re-solves cold each round — a residual
  rewrite moves the optimum wholesale, so basis carry does not pay
  there — and must return a valid allocation on every problem; its
  iteration count and time are recorded;
* no session solve may need a HiGHS rescue (``n_fallback``, recorded
  per K with the warm path's LU factorizations per solve): a rescue
  returns the right answer and so would hide an engine failure.

Results land in ``BENCH_warmstart.json`` (repo root) so the perf
trajectory is machine-trackable from this PR on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import PlatformSpec, SteadyStateProblem, generate_platform
from repro.heuristics.base import get_heuristic

from benchmarks.conftest import banner, counting_factorizations, full_scale

#: minimum sweep-wide iteration reduction the warm path must deliver
MIN_REDUCTION = 0.30

_OUT = Path(__file__).resolve().parents[1] / "BENCH_warmstart.json"


def _reference_problem(seed: int, k: int) -> SteadyStateProblem:
    """The reference platform family (same knobs as the test fixtures)."""
    spec = PlatformSpec(
        n_clusters=k,
        connectivity=0.5,
        heterogeneity=0.5,
        mean_g=200.0,
        mean_bw=30.0,
        mean_max_connect=10.0,
        speed_heterogeneity=0.5,
    )
    platform = generate_platform(spec, rng=seed)
    payoffs = np.random.default_rng(seed + 999).uniform(0.8, 1.2, k)
    return SteadyStateProblem(platform, payoffs, objective="maxmin")


def _sweep(k_values, seeds) -> dict:
    lprr = get_heuristic("lprr")
    lprg_it = get_heuristic("lprg-it")
    out = {
        "k_values": list(k_values),
        "seeds": list(seeds),
        "lprr": {"per_k": {}, "identical": 0, "runs": 0},
        "lprg_it": {"per_k": {}},
    }

    for k in k_values:
        row = {
            "iters_warm": 0, "iters_cold": 0,
            "time_warm": 0.0, "time_cold": 0.0, "time_scipy": 0.0,
            "warm_solves": 0, "solves": 0,
            "fallbacks": 0, "factorizations_warm": 0, "n_cold_warm": 0,
        }
        it_row = {"iterations": 0, "time": 0.0}
        for seed in seeds:
            problem = _reference_problem(seed, k)
            with counting_factorizations() as factorizations:
                warm = lprr.run(problem, rng=seed, warm_start=True,
                                lp_backend="session")
            cold = lprr.run(problem, rng=seed, warm_start=False,
                            lp_backend="session")
            same = np.array_equal(
                warm.allocation.alpha, cold.allocation.alpha
            ) and np.array_equal(warm.allocation.beta, cold.allocation.beta)
            out["lprr"]["runs"] += 1
            out["lprr"]["identical"] += int(same)
            # The revised engine canonicalizes every optimal vertex over
            # the finite-bounded columns, so warm and cold steps report
            # the same betas (to roundoff; their alphas may differ).
            # Rounding reads only betas and the final solve is cold on
            # both paths, so the allocations match bitwise at every K on
            # this pinned sweep. A failure here means a code change
            # moved a beta: inspect it before touching the pins.
            assert same, (
                f"warm/cold LPRR allocations diverged at K={k} seed={seed}"
            )
            # seeded first solve: only the final reference solve is cold
            assert warm.meta["lp_stats"]["n_cold"] == 1, (
                f"warm LPRR ran {warm.meta['lp_stats']['n_cold']} cold "
                f"solves at K={k} seed={seed}"
            )
            scipy_ref = lprr.run(problem, rng=seed, lp_backend="scipy")
            row["time_scipy"] += scipy_ref.runtime
            ws, cs = warm.meta["lp_stats"], cold.meta["lp_stats"]
            row["iters_warm"] += ws["iterations"]
            row["iters_cold"] += cs["iterations"]
            row["time_warm"] += warm.runtime
            row["time_cold"] += cold.runtime
            row["warm_solves"] += ws["n_warm"]
            row["solves"] += ws["n_solves"]
            row["n_cold_warm"] += ws["n_cold"]
            row["factorizations_warm"] += factorizations[0]

            lprg_it_result = lprg_it.run(problem, lp_backend="session")
            assert problem.check(lprg_it_result.allocation).ok
            its = lprg_it_result.meta["lp_stats"]
            it_row["iterations"] += its["iterations"]
            it_row["time"] += lprg_it_result.runtime
            row["fallbacks"] += (
                ws["n_fallback"] + cs["n_fallback"] + its["n_fallback"]
            )
        row["factorizations_per_solve"] = (
            row["factorizations_warm"] / row["solves"]
        )
        out["lprr"]["per_k"][k] = row
        out["lprg_it"]["per_k"][k] = it_row

    series = out["lprr"]
    per_k = series["per_k"]
    series["iters_warm"] = sum(r["iters_warm"] for r in per_k.values())
    series["iters_cold"] = sum(r["iters_cold"] for r in per_k.values())
    series["time_warm"] = sum(r["time_warm"] for r in per_k.values())
    series["time_cold"] = sum(r["time_cold"] for r in per_k.values())
    series["iteration_reduction"] = 1.0 - (
        series["iters_warm"] / series["iters_cold"]
    )
    it_per_k = out["lprg_it"]["per_k"].values()
    out["lprg_it"]["iterations"] = sum(r["iterations"] for r in it_per_k)
    out["lprg_it"]["time"] = sum(r["time"] for r in it_per_k)
    return out


def test_warmstart_regression(benchmark):
    k_values = (4, 5, 6, 7, 8, 10)
    seeds = range(8) if full_scale() else range(4)
    data = benchmark.pedantic(
        _sweep, args=(k_values, seeds), rounds=1, iterations=1
    )

    banner(
        "PR 2 / warm-started LP re-solves (LPSession) on the K^2 hot path",
        "Figure 7 costs LPRR ~K(K-1) LP solves; basis reuse must cut the "
        "simplex work without changing a single output byte.",
    )
    print(f"{'K':>3} {'iters cold':>11} {'iters warm':>11} {'saved':>7} "
          f"{'t cold (s)':>11} {'t warm (s)':>11} {'t scipy (s)':>12} "
          f"{'LU/solve':>9} {'fallbacks':>10} {'cold/warm run':>14}")
    n_runs = len(seeds)
    for k, row in data["lprr"]["per_k"].items():
        saved = 1 - row["iters_warm"] / row["iters_cold"]
        print(f"{k:>3} {row['iters_cold']:>11} {row['iters_warm']:>11} "
              f"{saved:>6.0%} {row['time_cold']:>11.3f} {row['time_warm']:>11.3f} "
              f"{row['time_scipy']:>12.3f} "
              f"{row['factorizations_per_solve']:>9.2f} {row['fallbacks']:>10} "
              f"{row['n_cold_warm'] / n_runs:>14.2f}")
    red = data["lprr"]["iteration_reduction"]
    print(f"LPRR: allocations bitwise-identical on "
          f"{data['lprr']['identical']}/{data['lprr']['runs']} runs; "
          f"iteration reduction {red:.0%} (gate: >={MIN_REDUCTION:.0%})")
    print(f"LPRG-it: {data['lprg_it']['iterations']} iterations, "
          f"{data['lprg_it']['time']:.3f}s, every allocation valid")

    payload = {
        "bench": "warmstart",
        "full_scale": full_scale(),
        "min_reduction_gate": MIN_REDUCTION,
        "results": data,
    }
    _OUT.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"wrote {_OUT.name}")

    # Regression gates.
    assert data["lprr"]["identical"] == data["lprr"]["runs"]
    assert data["lprr"]["iters_warm"] < data["lprr"]["iters_cold"]
    assert red >= MIN_REDUCTION, f"iteration reduction {red:.1%} below gate"
    # The session must beat cold HiGHS at every K — no size cliff left —
    # and solve every LP itself, with no HiGHS rescue.
    for k, row in data["lprr"]["per_k"].items():
        assert row["fallbacks"] == 0, (
            f"{row['fallbacks']} HiGHS fallbacks at K={k}"
        )
        assert row["time_warm"] < row["time_scipy"], (
            f"warm session slower than cold HiGHS at K={k}: "
            f"{row['time_warm']:.3f}s vs {row['time_scipy']:.3f}s"
        )
