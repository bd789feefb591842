"""E2 — Section 6.1 headline: LPRG/G value ratios.

Paper: "Over all the platforms that we evaluated, the ratio of the
objective values achieved by LPRG to that by G is: 1.98 for MAXMIN and
1.02 for SUM."

The reproduction sweeps a stratified grid subsample and reports the same
two numbers. Expected shape: MAXMIN ratio well above 1 (LPRG much
fairer), SUM ratio slightly above 1.
"""

from repro import Solver, SolverConfig
from repro.experiments import headline_ratios, sample_settings

from benchmarks.conftest import banner, sweep_jobs


def test_headline_lprg_over_g(benchmark, scale):
    def run():
        settings = sample_settings(
            scale["headline_settings"], rng=42, k_values=[5, 15, 25, 35]
        )
        # campaign engine: identical output for any jobs
        solver = Solver(SolverConfig(jobs=sweep_jobs()))
        rows = solver.sweep(
            settings,
            methods=("greedy", "lprg"),
            objectives=("maxmin", "sum"),
            n_platforms=scale["headline_platforms"],
            rng=42,
        )
        return headline_ratios(rows)

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)

    banner(
        "E2 / Section 6.1 - headline LPRG/G objective-value ratios",
        "LPRG/G = 1.98 for MAXMIN, 1.02 for SUM",
    )
    print(f"measured LPRG/G (MAXMIN): {ratios['maxmin']:.3f}   [paper: 1.98]")
    print(f"measured LPRG/G (SUM):    {ratios['sum']:.3f}   [paper: 1.02]")
    # Shape assertions: LPRG dominates G clearly on MAXMIN, mildly on SUM.
    assert ratios["maxmin"] > 1.1
    assert 0.95 < ratios["sum"] < 1.5
    assert ratios["maxmin"] > ratios["sum"]
