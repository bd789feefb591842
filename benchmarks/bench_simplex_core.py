"""Revised-simplex core: factorized warm re-solves vs cold HiGHS.

In the revised engine (``repro/lp/revised.py`` over
``repro/lp/basis_lu.py``) warm re-solves ride one persistent LU
factorization (eta updates + periodic refactorization) and a carried
bounded-variable basis, so the session path is supposed to beat a cold
HiGHS solve per step at *every* instance size. This benchmark is the
regression gate for that core, on LPRR's pin chains:

* **LPRR pin chains at large K** (~K(K-1) solves, one ``lb == ub`` pin
  per solve), up to the paper's Figure-7 sizes (K=20 in the smoke run,
  K=30 under ``REPRO_FULL=1``): the warm session must beat the
  cold-HiGHS-per-solve reference (``lp_backend="scipy"``) in wall-clock
  at every K while producing valid, LP-bounded allocations, and must
  never need a HiGHS rescue (``n_fallback`` — otherwise a silent engine
  failure). LU factorizations per solve and cold solves (``n_cold``:
  the final reference solve of each chain, whose first solve starts
  from the relaxation's HiGHS optimum) are recorded per K.
* **LPRR at the paper's K=40** (3,161 variables x 2,056 rows, 1,561
  solves): one warm chain on seed 0. It must need no HiGHS rescue, run
  exactly one cold solve (the final reference solve) and take one solve
  per beta pair plus that final one; its factorizations and FTRAN/BTRAN
  solves per LP solve are recorded. Its cold-HiGHS-per-solve reference
  (about a minute) and seed 1 run only under ``REPRO_FULL=1``, where
  the warm chain must beat it.

Results land in ``BENCH_simplex_core.json`` (repo root); the
``scripts/verify.sh`` gate requires this file to be refreshed by every
verification run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import PlatformSpec, SteadyStateProblem, generate_platform
from repro.heuristics.base import get_heuristic
from repro.lp.builder import build_lp
from repro.lp.scipy_backend import solve_lp_scipy

from benchmarks.conftest import (
    banner, counting_factorizations, counting_lu_solves, full_scale,
)

_OUT = Path(__file__).resolve().parents[1] / "BENCH_simplex_core.json"


def _reference_problem(seed: int, k: int) -> SteadyStateProblem:
    """Same platform family as the test fixtures and bench_warmstart."""
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


def _lprr_leg(k_values, seeds) -> dict:
    """Large-K LPRR pin chains: warm session vs cold HiGHS per solve."""
    lprr = get_heuristic("lprr")
    per_k = {}
    for k in k_values:
        row = {
            "time_session": 0.0,
            "time_scipy": 0.0,
            "iterations": 0,
            "dual_steps": 0,
            "n_warm": 0,
            "n_cold": 0,
            "n_solves": 0,
            "n_fallback": 0,
            "factorizations": 0,
        }
        for seed in seeds:
            problem = _reference_problem(seed, k)
            lp_bound = solve_lp_scipy(build_lp(problem)).value
            with counting_factorizations() as factorizations:
                warm = lprr.run(problem, rng=seed, lp_backend="session")
            ref = lprr.run(problem, rng=seed, lp_backend="scipy")
            for result in (warm, ref):
                assert problem.check(result.allocation).ok
                assert result.value <= lp_bound + 1e-6
            stats = warm.meta["lp_stats"]
            row["time_session"] += warm.runtime
            row["time_scipy"] += ref.runtime
            row["iterations"] += stats["iterations"]
            row["dual_steps"] += stats["dual_steps"]
            row["n_warm"] += stats["n_warm"]
            row["n_cold"] += stats["n_cold"]
            row["n_solves"] += stats["n_solves"]
            row["n_fallback"] += stats["n_fallback"]
            row["factorizations"] += factorizations[0]
        row["factorizations_per_solve"] = (
            row["factorizations"] / row["n_solves"]
        )
        per_k[k] = row
    return per_k


def _paper_leg(k, seeds, with_reference: bool) -> dict:
    """LPRR warm chains at paper scale, with work counts per solve."""
    lprr = get_heuristic("lprr")
    row = {
        "time_session": 0.0,
        "time_scipy": None,
        "iterations": 0,
        "n_cold": 0,
        "n_solves": 0,
        "n_fallback": 0,
        "beta_pairs": 0,
        "factorizations": 0,
        "lu_solves": 0,
    }
    for seed in seeds:
        problem = _reference_problem(seed, k)
        instance = build_lp(problem)
        lp_bound = solve_lp_scipy(instance).value
        with counting_factorizations() as factorizations, \
                counting_lu_solves() as lu_solves:
            warm = lprr.run(problem, rng=seed, lp_backend="session")
        assert problem.check(warm.allocation).ok
        assert warm.value <= lp_bound + 1e-6
        stats = warm.meta["lp_stats"]
        row["time_session"] += warm.runtime
        row["iterations"] += stats["iterations"]
        row["n_cold"] += stats["n_cold"]
        row["n_solves"] += stats["n_solves"]
        row["n_fallback"] += stats["n_fallback"]
        row["beta_pairs"] += len(instance.index.beta_pairs)
        row["factorizations"] += factorizations[0]
        row["lu_solves"] += lu_solves[0]
        if with_reference:
            ref = lprr.run(problem, rng=seed, lp_backend="scipy")
            assert problem.check(ref.allocation).ok
            row["time_scipy"] = (row["time_scipy"] or 0.0) + ref.runtime
    row["factorizations_per_solve"] = row["factorizations"] / row["n_solves"]
    row["lu_solves_per_solve"] = row["lu_solves"] / row["n_solves"]
    return {k: row}


def _sweep(lprr_k, seeds, paper_k, paper_seeds) -> dict:
    return {
        "lprr_k": list(lprr_k),
        "seeds": list(seeds),
        "paper_seeds": list(paper_seeds),
        "lprr": _lprr_leg(lprr_k, seeds),
        "lprr_paper": _paper_leg(paper_k, paper_seeds, full_scale()),
    }


def test_simplex_core_regression(benchmark):
    lprr_k = (8, 12, 16, 20, 30) if full_scale() else (8, 12, 20)
    seeds = range(2)
    paper_k = 40
    paper_seeds = range(2) if full_scale() else range(1)
    data = benchmark.pedantic(
        _sweep, args=(lprr_k, seeds, paper_k, paper_seeds),
        rounds=1, iterations=1,
    )

    banner(
        "Revised-simplex core: LU-factorized warm chains vs cold HiGHS",
        "the session path must beat cold HiGHS per re-solve at every size "
        "on LPRR pin chains.",
    )
    print(f"{'K':>3} {'t session (s)':>14} {'t scipy (s)':>12} "
          f"{'speedup':>8} {'warm/solves':>12} {'cold':>5} {'iters':>7} "
          f"{'LU/solve':>9} {'fallbacks':>10}")
    for k, row in data["lprr"].items():
        speedup = row["time_scipy"] / max(row["time_session"], 1e-12)
        print(f"{k:>3} {row['time_session']:>14.3f} {row['time_scipy']:>12.3f} "
              f"{speedup:>7.2f}x {row['n_warm']:>5}/{row['n_solves']:<6} "
              f"{row['n_cold']:>5} {row['iterations']:>7} "
              f"{row['factorizations_per_solve']:>9.2f} "
              f"{row['n_fallback']:>10}")
    for k, row in data["lprr_paper"].items():
        ref = row["time_scipy"]
        ref_text = "-" if ref is None else f"{ref:.3f}"
        speedup = "-" if ref is None else f"{ref / row['time_session']:.2f}x"
        print(f"{k:>3} {row['time_session']:>14.3f} {ref_text:>12} "
              f"{speedup:>8} {row['n_solves'] - row['n_cold']:>5}/"
              f"{row['n_solves']:<6} {row['n_cold']:>5} "
              f"{row['iterations']:>7} "
              f"{row['factorizations_per_solve']:>9.2f} "
              f"{row['n_fallback']:>10}  "
              f"({row['lu_solves_per_solve']:.2f} LU solves/solve)")

    payload = {
        "bench": "simplex_core",
        "full_scale": full_scale(),
        "results": data,
    }
    _OUT.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"wrote {_OUT.name}")

    # Regression gates.
    for k, row in data["lprr"].items():
        # The core claim: no size cliff — warm session beats cold HiGHS
        # per solve at every K.
        assert row["time_session"] < row["time_scipy"], (
            f"session slower than cold HiGHS at K={k}: "
            f"{row['time_session']:.3f}s vs {row['time_scipy']:.3f}s"
        )
        # The chains really run warm (carried bases accepted, not
        # silently falling back to cold restarts).
        assert row["n_warm"] >= 0.8 * (row["n_solves"] - len(list(seeds)))
        # ... and the engine itself solves every LP: a HiGHS rescue
        # would hide an engine failure behind a correct answer.
        assert row["n_fallback"] == 0, (
            f"{row['n_fallback']} HiGHS fallbacks at K={k}"
        )
    for k, row in data["lprr_paper"].items():
        n_seeds = len(data["paper_seeds"])
        assert row["n_fallback"] == 0, (
            f"{row['n_fallback']} HiGHS fallbacks at K={k}"
        )
        # the final reference solve is the only cold one: the chain's
        # first solve starts from the relaxation's HiGHS optimum
        assert row["n_cold"] == n_seeds, f"{row['n_cold']} cold solves at K={k}"
        assert row["n_solves"] == row["beta_pairs"] + n_seeds
        if row["time_scipy"] is not None:
            assert row["time_session"] < row["time_scipy"], (
                f"session slower than cold HiGHS at K={k}"
            )
