"""E11 — Section 6.1 (last paragraph): parameter-trend mining.

Paper: "No clear trend emerges in the MAXMIN case [...]. The relative
performance of G and LPRG is more regular in the SUM case, but we found
that variations in platform parameters besides K (i.e., connectivity,
heterogeneity, g, bw, or maxcon) does not lead to significant variations
in relative performance."

Measured as the spread (max - min) of the per-bucket mean LPRG/G ratio
for every non-K parameter, compared against the spread over K.
"""

from collections import defaultdict

import numpy as np

from repro import Solver
from repro.experiments import sample_settings
from repro.experiments.trends import render_trends, trend_spread

from benchmarks.conftest import banner, full_scale


def _sweep():
    n = 24 if full_scale() else 8
    settings = sample_settings(n, rng=19, k_values=[10, 20])
    return Solver().sweep(
        settings,
        methods=("greedy", "lprg"),
        objectives=("maxmin", "sum"),
        n_platforms=3 if full_scale() else 2,
        rng=19,
    )


def _k_spread(rows, objective):
    """Spread of the LPRG/G ratio across K buckets (the contrast case)."""
    num = [r for r in rows if r.method == "lprg" and r.objective == objective]
    den = [r for r in rows if r.method == "greedy" and r.objective == objective]
    buckets = defaultdict(list)
    for nr, dr in zip(num, den):
        if dr.value > 0:
            buckets[nr.setting.k].append(nr.value / dr.value)
    means = [np.mean(v) for v in buckets.values()]
    return float(max(means) - min(means)) if len(means) > 1 else 0.0


def test_parameter_trends(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    banner(
        "E11 / Section 6.1 - platform-parameter trend mining",
        "non-K parameters do not lead to significant variations in the "
        "relative performance of G and LPRG (SUM case); MAXMIN irregular",
    )
    for objective in ("sum", "maxmin"):
        spread = trend_spread(rows, objective)
        print(f"objective {objective.upper()}:")
        for parameter, value in spread.items():
            print(f"  spread over {parameter:<14} {value:.3f}")
        print(f"  spread over {'K':<14} {_k_spread(rows, objective):.3f}")
    print()
    print(render_trends(rows, "sum"))
