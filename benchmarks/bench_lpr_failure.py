"""E6 — Section 6.1: LPR's round-down failure mode.

Paper: "LPR exhibits very poor performance when compared to both G and
LPRG. Typically LPR does not utilize a significant portion of the
network capacity, and in some cases all beta values are rounded down to
0, leading to an objective value of 0."
"""

import numpy as np

from repro import Solver
from repro.experiments import lpr_failure_stats, sample_settings
from repro.experiments.aggregate import mean_ratio_by_k, pairwise_value_ratio

from benchmarks.conftest import banner, full_scale


def test_lpr_failure_mode(benchmark):
    n_settings = 24 if full_scale() else 8

    def run():
        # Low-bandwidth / low-connection settings provoke fractional
        # betas, which is where round-down hurts most; keep the sample
        # honest by mixing in the full grid too.
        settings = sample_settings(n_settings, rng=3, k_values=[5, 15, 25])
        return Solver().sweep(
            settings,
            methods=("greedy", "lpr", "lprg"),
            objectives=("maxmin",),
            n_platforms=2,
            rng=3,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    stats = lpr_failure_stats(rows)
    lpr_vs_lprg = pairwise_value_ratio(rows, "lpr", "lprg", "maxmin")

    banner(
        "E6 / Section 6.1 - LPR round-down failure mode",
        "LPR very poor vs G and LPRG; sometimes every beta rounds to 0",
    )
    print(f"mean LPR/LP ratio (MAXMIN):      {stats['mean_ratio']:.3f}")
    print(f"fraction of zero-value outcomes: {stats['zero_fraction']:.3f}")
    print(f"mean LPR/LPRG value ratio:       {lpr_vs_lprg:.3f}")
    for k, v in mean_ratio_by_k(rows, "lpr", "maxmin"):
        print(f"  K={k:>3}: LPR/LP = {v:.3f}")

    # Shape: LPR clearly below LPRG on average.
    assert lpr_vs_lprg < 0.95
    # LPR loses a visible chunk of the bound.
    assert stats["mean_ratio"] < 0.9
