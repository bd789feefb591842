"""Data generators for the paper's Figures 5, 6 and 7.

Each function runs the required sweep and returns a :class:`FigureData`
with the numeric series (the reproducible artifact) plus enough metadata
for :func:`repro.experiments.report.render_figure` to print a table and
an ASCII plot. Scale knobs (``platforms_per_k``, K lists) default to
laptop-friendly values; benchmarks pass larger ones under
``REPRO_FULL=1``.

Every generator runs its sweep through ``solver.sweep`` (a
:class:`repro.api.Solver`, default ``Solver()``), so the execution knobs
(``jobs``, ``stream``, ``row_sink``, ``shards``, ...) come from
``solver.config``, the one place they live. With ``stream=True`` the
series come from the streaming aggregation subsystem's constant-size
accumulators (:mod:`repro.parallel.stream`) instead of a materialised
row list (``FigureData.rows`` stays empty; ``row_sink`` diverts the raw
rows to disk). The in-memory path remains the default and the bitwise
reference; streamed means agree with it to float rounding (Welford vs
``np.mean``). The legacy ``run_sweep`` shim is a leaf that no package
module calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.api import Solver
from repro.experiments.aggregate import (
    headline_ratios,
    lpr_failure_stats,
    mean_ratio_by_k,
    runtime_by_k,
)
from repro.experiments.config import (
    DEFAULT_SCENARIO,
    Scenario,
    Setting,
    sample_settings,
)
from repro.util.rng import ensure_rng


@dataclass
class FigureData:
    """Numeric reproduction of one paper figure.

    Attributes
    ----------
    name, title:
        Identifier (``"figure5"``) and human title.
    series:
        Legend label -> list of (x, y) points.
    logy:
        Render the y axis in log10 (Figure 7).
    notes:
        Extra scalar findings (headline ratios, failure stats, ...).
    rows:
        The raw sweep rows, for downstream analysis.
    """

    name: str
    title: str
    series: dict = field(default_factory=dict)
    logy: bool = False
    notes: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)


def _settings_for_k_sweep(
    k_values: Sequence[int], settings_per_k: int, rng
) -> list[Setting]:
    """Stratified settings: ``settings_per_k`` random grid points per K."""
    out: list[Setting] = []
    for k in k_values:
        out.extend(sample_settings(settings_per_k, rng=rng, k_values=[k]))
    return out


def figure5(
    k_values: Sequence[int] = (5, 15, 25, 35),
    settings_per_k: int = 3,
    platforms_per_setting: int = 3,
    scenario: Scenario = DEFAULT_SCENARIO,
    rng=None,
    solver: Solver | None = None,
) -> FigureData:
    """Figure 5: LPRG and G vs the LP bound as K grows (both objectives).

    Paper claims reproduced: LPRG >= G almost everywhere; SUM(LPRG)
    approaches the bound as K grows; MAXMIN(G) degrades with K;
    plus Section 6.1's headline LPRG/G ratios and LPR failure stats.
    """
    rng = ensure_rng(rng)
    solver = solver if solver is not None else Solver()
    settings = _settings_for_k_sweep(k_values, settings_per_k, rng)
    result = solver.sweep(
        settings,
        scenario=scenario,
        methods=("greedy", "lpr", "lprg"),
        objectives=("maxmin", "sum"),
        n_platforms=platforms_per_setting,
        rng=rng,
    )
    stream = solver.config.stream
    fig = FigureData(
        name="figure5",
        title="Figure 5: LPRG and G relative to the LP bound vs K",
        rows=[] if stream else result,
    )
    for method in ("lprg", "greedy"):
        for objective in ("maxmin", "sum"):
            label = f"{objective.upper()}({method.upper()})/LP"
            fig.series[label] = (
                result.mean_ratio_by_k(method, objective)
                if stream
                else mean_ratio_by_k(result, method, objective)
            )
    if stream:
        fig.notes["headline_lprg_over_g"] = result.headline_ratios()
        fig.notes["lpr_failure"] = result.lpr_failure_stats()
    else:
        fig.notes["headline_lprg_over_g"] = headline_ratios(result)
        fig.notes["lpr_failure"] = lpr_failure_stats(result)
    return fig


def figure6(
    k_values: Sequence[int] = (15, 20, 25),
    settings_per_k: int = 2,
    platforms_per_setting: int = 2,
    scenario: Scenario = DEFAULT_SCENARIO,
    rng=None,
    solver: Solver | None = None,
) -> FigureData:
    """Figure 6: LPRR vs G relative to the LP bound (80-topology study).

    Paper claims reproduced: LPRR lands close to the LP bound on both
    objectives, well above G on MAXMIN.
    """
    rng = ensure_rng(rng)
    solver = solver if solver is not None else Solver()
    settings = _settings_for_k_sweep(k_values, settings_per_k, rng)
    result = solver.sweep(
        settings,
        scenario=scenario,
        methods=("greedy", "lprr"),
        objectives=("maxmin", "sum"),
        n_platforms=platforms_per_setting,
        rng=rng,
    )
    stream = solver.config.stream
    fig = FigureData(
        name="figure6",
        title="Figure 6: LPRR and G relative to the LP bound vs K",
        rows=[] if stream else result,
    )
    for method in ("lprr", "greedy"):
        for objective in ("maxmin", "sum"):
            label = f"{objective.upper()}({method.upper()})/LP"
            fig.series[label] = (
                result.mean_ratio_by_k(method, objective)
                if stream
                else mean_ratio_by_k(result, method, objective)
            )
    fig.notes["n_topologies"] = len(settings) * platforms_per_setting
    return fig


def figure7(
    k_values: Sequence[int] = (10, 15, 20, 25),
    settings_per_k: int = 1,
    platforms_per_setting: int = 2,
    scenario: Scenario = DEFAULT_SCENARIO,
    include_lprr: bool = True,
    rng=None,
    solver: Solver | None = None,
) -> FigureData:
    """Figure 7: heuristic running time vs K (log scale).

    Paper claims reproduced: G is orders of magnitude faster than the
    LP-based heuristics; LP/LPR/LPRG cluster together; LPRR is slower by
    a factor growing like K^2 (it solves ~K^2 LPs).
    """
    rng = ensure_rng(rng)
    solver = solver if solver is not None else Solver()
    settings = _settings_for_k_sweep(k_values, settings_per_k, rng)
    methods = ("greedy", "lpr", "lprg") + (("lprr",) if include_lprr else ())
    result = solver.sweep(
        settings,
        scenario=scenario,
        methods=methods,
        objectives=("maxmin",),
        n_platforms=platforms_per_setting,
        rng=rng,
    )
    stream = solver.config.stream

    def _runtime_series(method):
        if stream:
            return result.runtime_by_k(method)
        return runtime_by_k(result, method)

    fig = FigureData(
        name="figure7",
        title="Figure 7: running time (s) of the heuristics vs K (log y)",
        logy=True,
        rows=[] if stream else result,
    )
    for method in methods:
        fig.series[method.upper()] = _runtime_series(method)
    if include_lprr:
        lprr = dict(_runtime_series("lprr"))
        lprg = dict(_runtime_series("lprg"))
        fig.notes["lprr_over_lprg"] = {
            k: (lprr[k] / lprg[k] if lprg.get(k) else float("nan")) for k in lprr
        }
    return fig
