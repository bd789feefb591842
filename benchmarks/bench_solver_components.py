"""Component micro-benchmarks: LP assembly, HiGHS, our revised simplex.

Not a paper artifact per se, but the substrate behind Figure 7: it
separates LP *construction* cost from LP *solve* cost and times our
revised simplex (the lp_solve stand-in) against HiGHS on the same
program-(7) instance.
"""

import numpy as np

from repro.core.problem import SteadyStateProblem
from repro.experiments import sample_settings, spec_for
from repro.experiments.config import DEFAULT_SCENARIO, payoffs_for
from repro.lp.builder import build_lp
from repro.lp.revised import revised_solve
from repro.lp.scipy_backend import solve_lp_scipy
from repro.platform.generator import generate_platform

from benchmarks.conftest import banner, full_scale


def _problem(k: int, seed: int = 11):
    setting = sample_settings(1, rng=seed, k_values=[k])[0]
    platform = generate_platform(spec_for(setting), rng=seed)
    payoffs = payoffs_for(setting, DEFAULT_SCENARIO, np.random.default_rng(seed))
    return SteadyStateProblem(platform, payoffs, objective="maxmin")


def test_lp_build(benchmark):
    k = 40 if full_scale() else 20
    problem = _problem(k)
    instance = benchmark(build_lp, problem)
    banner(
        "component - LP matrix assembly",
        "(substrate for Fig. 7; one assembly per LP-based heuristic call)",
    )
    print(
        f"K={k}: {instance.n_vars} variables, {instance.n_rows} rows, "
        f"{instance.A_ub.nnz} non-zeros"
    )


def test_lp_solve_highs(benchmark):
    k = 40 if full_scale() else 20
    instance = build_lp(_problem(k))
    solution = benchmark(solve_lp_scipy, instance)
    banner("component - HiGHS solve of program (7)", "(production backend)")
    print(f"K={k}: optimum {solution.value:.4f}")


def test_revised_simplex_matches_highs(benchmark):
    # Same instance as test_lp_solve_highs, so the two timings compare.
    k = 40 if full_scale() else 20
    instance = build_lp(_problem(k))
    reference = solve_lp_scipy(instance)

    result = benchmark.pedantic(
        revised_solve,
        args=(instance.obj, instance.A_ub, instance.b_ub,
              (instance.lb, instance.ub)),
        rounds=3,
        iterations=1,
    )
    banner(
        "component - cold revised simplex (lp_solve stand-in)",
        "paper solved its LPs with the lp_solve Simplex package",
    )
    print(
        f"K={k}: revised simplex {result.value:.6f} in {result.iterations} "
        f"pivots; HiGHS: {reference.value:.6f}"
    )
    assert result.ok
    assert abs(result.value - reference.value) < 1e-6 * max(1.0, abs(reference.value))
