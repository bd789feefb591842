"""Sweep runner: heuristics x objectives over generated platforms.

Produces flat :class:`ExperimentRow` records, one per (platform,
objective, method), each carrying the LP upper bound of its platform so
that every aggregate in :mod:`repro.experiments.aggregate` is a simple
group-by.

:func:`run_replicate` is the unit of sweep work. A sweep runs through
:meth:`repro.api.Solver.sweep`, which expands it into per-replicate
tasks (each carrying its own stateless spawn seed, see
:mod:`repro.parallel.sweep`) and runs them inline for ``jobs=1`` or on
a process pool for ``jobs>1``; the rows are bitwise-identical for any
``jobs`` value. :func:`run_setting` is the serial reference that
equivalence tests compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import SteadyStateProblem
from repro.experiments.config import (
    DEFAULT_SCENARIO,
    Scenario,
    Setting,
    payoffs_for,
    spec_for,
)
from repro.heuristics.base import get_heuristic
from repro.platform.generator import generate_platform
from repro.util.rng import ensure_rng, spawn_seed_sequences

#: methods swept by default (LPRR excluded: the paper, too, ran it on a
#: small subset only because of its K^2 LP-solve cost)
DEFAULT_METHODS = ("greedy", "lpr", "lprg")
DEFAULT_OBJECTIVES = ("maxmin", "sum")


@dataclass(frozen=True, slots=True)
class ExperimentRow:
    """One measurement: one method on one platform under one objective."""

    setting: Setting
    replicate: int
    objective: str
    method: str
    value: float
    lp_value: float
    runtime: float
    n_lp_solves: int

    @property
    def ratio(self) -> float:
        """Objective value relative to the LP upper bound (the y-axis of
        Figures 5 and 6)."""
        if self.lp_value <= 0:
            return 1.0 if self.value <= 0 else float("inf")
        return self.value / self.lp_value


def run_replicate(
    setting: Setting,
    replicate: int,
    scenario: Scenario = DEFAULT_SCENARIO,
    methods: Sequence[str] = DEFAULT_METHODS,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    rng=None,
) -> list[ExperimentRow]:
    """Evaluate all methods on *one* random platform of one grid point.

    This is the pure unit of sweep work: platform generation, payoff
    draw and every stochastic heuristic consume the single ``rng``
    stream sequentially, so the rows are a deterministic function of
    ``(setting, scenario, methods, objectives, rng)``. The LP bound is
    solved once per objective and attached to every row.
    """
    rng = ensure_rng(rng)
    platform = generate_platform(spec_for(setting, scenario), rng=rng)
    payoffs = payoffs_for(setting, scenario, rng)
    rows: list[ExperimentRow] = []
    for objective in objectives:
        problem = SteadyStateProblem(platform, payoffs, objective=objective)
        lp_result = get_heuristic("lp").run(problem)
        rows.append(
            ExperimentRow(
                setting=setting,
                replicate=replicate,
                objective=objective,
                method="lp",
                value=lp_result.value,
                lp_value=lp_result.value,
                runtime=lp_result.runtime,
                n_lp_solves=lp_result.n_lp_solves,
            )
        )
        for method in methods:
            result = get_heuristic(method).run(problem, rng=rng)
            rows.append(
                ExperimentRow(
                    setting=setting,
                    replicate=replicate,
                    objective=objective,
                    method=method,
                    value=result.value,
                    lp_value=lp_result.value,
                    runtime=result.runtime,
                    n_lp_solves=result.n_lp_solves,
                )
            )
    return rows


def run_setting(
    setting: Setting,
    scenario: Scenario = DEFAULT_SCENARIO,
    methods: Sequence[str] = DEFAULT_METHODS,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    n_platforms: "int | None" = None,
    rng=None,
) -> list[ExperimentRow]:
    """Evaluate all methods on ``n_platforms`` random platforms of one
    grid point. Per-replicate seeds are stateless ``SeedSequence`` spawn
    children of ``rng`` (see :func:`repro.util.rng.spawn_seed_sequences`),
    so the same seed always produces the same platforms regardless of
    prior RNG use or execution mode."""
    n_platforms = (
        scenario.platforms_per_setting if n_platforms is None else n_platforms
    )
    rows: list[ExperimentRow] = []
    for rep, seed in enumerate(spawn_seed_sequences(rng, n_platforms)):
        rows.extend(
            run_replicate(
                setting,
                rep,
                scenario=scenario,
                methods=methods,
                objectives=objectives,
                rng=np.random.default_rng(seed),
            )
        )
    return rows
