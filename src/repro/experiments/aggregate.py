"""Aggregations over experiment rows: the numbers the paper reports.

* :func:`mean_ratio_by_k` — the y-values of Figures 5/6 (objective value
  relative to the LP bound, averaged per K);
* :func:`headline_ratios` — Section 6.1's "the ratio of the objective
  values achieved by LPRG to that by G is 1.98 for MAXMIN and 1.02 for
  SUM";
* :func:`lpr_failure_stats` — Section 6.1's observation that LPR wastes
  network capacity and sometimes rounds every beta to zero;
* :func:`runtime_by_k` — the series of Figure 7.

Two aggregation paths coexist. The classic functions below reduce a
materialised row list with ``np.mean`` — the historical reference, kept
bitwise-stable. :func:`aggregate_rows` is the *streaming* reference: it
folds the same rows through the constant-size accumulator algebra of
:mod:`repro.parallel.stream` in task order, producing exactly (bitwise)
what a ``stream=True`` sweep computes incrementally — use it to check a
streamed aggregate against an in-memory row list. The two references
agree to float-rounding (``np.mean``'s pairwise summation vs the
accumulators' correctly-rounded exact sums), pinned by
``tests/test_stream_accumulators.py``; counts, extrema and quantiles
are integer-exact and agree bitwise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.experiments.runner import ExperimentRow


def _group(rows: Sequence[ExperimentRow], method: str, objective: str):
    return [r for r in rows if r.method == method and r.objective == objective]


def mean_ratio_by_k(
    rows: Sequence[ExperimentRow], method: str, objective: str
) -> list[tuple[int, float]]:
    """Average value/LP ratio per K for one method+objective (Fig 5/6)."""
    buckets: dict[int, list[float]] = defaultdict(list)
    for r in _group(rows, method, objective):
        buckets[r.setting.k].append(r.ratio)
    return [(k, float(np.mean(v))) for k, v in sorted(buckets.items())]


def pairwise_value_ratio(
    rows: Sequence[ExperimentRow],
    numerator: str,
    denominator: str,
    objective: str,
) -> float:
    """Mean per-platform ratio ``value(numerator) / value(denominator)``.

    Platforms where the denominator achieved 0 are skipped when the
    numerator is also 0 (0/0 -> uninformative) and counted as ratio of
    +inf capped to the numerator's ratio-to-LP otherwise; in practice
    the greedy never scores 0 when any work is feasible.
    """
    num_rows = _group(rows, numerator, objective)
    den_rows = _group(rows, denominator, objective)
    if len(num_rows) != len(den_rows):
        raise ValueError(
            f"cannot pair {numerator} ({len(num_rows)} rows) with "
            f"{denominator} ({len(den_rows)} rows); run both in one sweep"
        )
    ratios = []
    for nr, dr in zip(num_rows, den_rows):
        if nr.setting != dr.setting or nr.replicate != dr.replicate:
            raise ValueError("row streams out of sync; run both methods in one sweep")
        if dr.value <= 0:
            if nr.value > 0:
                ratios.append(np.inf)
            continue
        ratios.append(nr.value / dr.value)
    finite = [r for r in ratios if np.isfinite(r)]
    return float(np.mean(finite)) if finite else float("nan")


def headline_ratios(rows: Sequence[ExperimentRow]) -> dict[str, float]:
    """LPRG/G mean value ratios per objective (paper: 1.98 / 1.02)."""
    return {
        objective: pairwise_value_ratio(rows, "lprg", "greedy", objective)
        for objective in ("maxmin", "sum")
    }


def lpr_failure_stats(rows: Sequence[ExperimentRow]) -> dict[str, float]:
    """How badly LPR underperforms: mean/median/p95 ratio-to-LP and the
    zero-value rate (a value at or below
    :data:`repro.parallel.stream.ZERO_TOL` counts as zero, as in the
    streamed stats). Quantiles and the zero fraction come from exact
    integer counts (the same fixed-bin sketch the streaming path uses,
    :class:`repro.parallel.stream.QuantileAccumulator`), so those match
    the streamed values bit for bit; ``mean_ratio`` keeps this module's
    historical ``np.mean`` (pairwise summation), which can differ from
    the streamed correctly-rounded exact-sum mean in the last ulp."""
    from repro.parallel.stream import ZERO_TOL, QuantileAccumulator

    lpr_rows = [r for r in rows if r.method == "lpr"]
    if not lpr_rows:
        nan = float("nan")
        return {
            "mean_ratio": nan,
            "zero_fraction": nan,
            "median_ratio": nan,
            "p95_ratio": nan,
        }
    ratios = [r.ratio for r in lpr_rows]
    zeros = [r.value <= ZERO_TOL for r in lpr_rows]
    sketch = QuantileAccumulator()
    for ratio in ratios:
        sketch.update(ratio)
    return {
        "mean_ratio": float(np.mean(ratios)),
        "zero_fraction": float(np.mean(zeros)),
        "median_ratio": sketch.median(),
        "p95_ratio": sketch.quantile(0.95),
    }


def runtime_by_k(
    rows: Sequence[ExperimentRow], method: str, objective: str = "maxmin"
) -> list[tuple[int, float]]:
    """Mean wall-clock runtime per K (the series of Figure 7)."""
    buckets: dict[int, list[float]] = defaultdict(list)
    for r in _group(rows, method, objective):
        buckets[r.setting.k].append(r.runtime)
    return [(k, float(np.mean(v))) for k, v in sorted(buckets.items())]


def aggregate_rows(
    rows: Sequence[ExperimentRow],
    methods: "Sequence[str] | None" = None,
    objectives: "Sequence[str] | None" = None,
):
    """Fold a materialised row list through the streaming accumulators.

    Returns the :class:`~repro.parallel.stream.SweepAccumulator` a
    ``stream=True`` sweep of the same definition produces — bitwise,
    because both fold the same rows in the same (task-index) order.
    Passing the sweep's ``methods``/``objectives`` makes the per-task
    re-chunking exact arithmetic; omitting them falls back to boundary
    detection (see :func:`repro.parallel.stream.iter_task_groups`).
    """
    from repro.parallel.stream import SweepAccumulator

    return SweepAccumulator.from_rows(
        rows, methods=methods, objectives=objectives
    )
