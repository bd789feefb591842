"""Section-6 evaluation harness.

Reproduces the paper's simulation study: the Table-1 parameter grid,
the per-platform heuristic comparison against the LP upper bound, the
aggregate ratios of Section 6.1/6.2, and the data behind Figures 5-7.
"""

from repro.experiments.config import (
    PAPER_GRID,
    Scenario,
    Setting,
    grid_size,
    iter_grid,
    sample_settings,
    spec_for,
    payoffs_for,
)
from repro.experiments.runner import (
    ExperimentRow,
    run_replicate,
    run_setting,
)
from repro.experiments.aggregate import (
    headline_ratios,
    lpr_failure_stats,
    mean_ratio_by_k,
)
from repro.experiments.figures import (
    FigureData,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.report import render_figure

__all__ = [
    "PAPER_GRID",
    "Scenario",
    "Setting",
    "grid_size",
    "iter_grid",
    "sample_settings",
    "spec_for",
    "payoffs_for",
    "ExperimentRow",
    "run_replicate",
    "run_setting",
    "headline_ratios",
    "lpr_failure_stats",
    "mean_ratio_by_k",
    "FigureData",
    "figure5",
    "figure6",
    "figure7",
    "render_figure",
]
