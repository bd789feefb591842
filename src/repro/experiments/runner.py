"""Sweep runner: heuristics x objectives over generated platforms.

Produces flat :class:`ExperimentRow` records, one per (platform,
objective, method), each carrying the LP upper bound of its platform so
that every aggregate in :mod:`repro.experiments.aggregate` is a simple
group-by.

Execution goes through the :mod:`repro.parallel` campaign engine: the
sweep is expanded into pure per-replicate tasks (each carrying its own
stateless spawn seed, see :mod:`repro.parallel.sweep`), which run inline
for ``jobs=1`` — the reference serial semantics — or on a process pool
for ``jobs>1``, with optional incremental checkpoint/resume. Results
are reassembled in task order, so the row list is bitwise-identical for
any ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.stream import SweepAccumulator

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


def run_sweep(
    settings: Sequence[Setting],
    scenario: Scenario = DEFAULT_SCENARIO,
    methods: Sequence[str] = DEFAULT_METHODS,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    n_platforms: "int | None" = None,
    rng=None,
    progress: bool = False,
    jobs: int = 1,
    chunk_size: "int | None" = None,
    checkpoint=None,
    resume: bool = False,
    stream: bool = False,
    row_sink=None,
    shards: int = 1,
    shard_backend: str = "process",
    shard_dir=None,
) -> "list[ExperimentRow] | SweepAccumulator":
    """Run the full sweep over many grid points.

    Parameters
    ----------
    settings, scenario, methods, objectives, n_platforms, rng:
        The sweep definition (as before).
    progress:
        Print a progress line as replicate tasks finish.
    jobs:
        Worker processes. ``1`` (default) runs inline — the exact
        serial semantics; ``jobs>1`` fans replicate tasks out over a
        process pool. Row values and ordering are identical either way.
    chunk_size:
        Tasks per pool submission (default: auto).
    checkpoint:
        Path to an incremental checkpoint file (JSON lines). Completed
        replicate tasks are flushed as they finish.
    resume:
        With ``checkpoint``, load previously completed tasks and only
        run the remainder. The checkpoint is fingerprinted against the
        sweep definition (settings, scenario, methods, objectives,
        ``n_platforms`` and seed), so resuming into a different sweep
        fails loudly.
    stream:
        Fold rows into constant-size accumulators as tasks complete
        (memory O(settings), not O(rows)) and return a
        :class:`~repro.parallel.stream.SweepAccumulator` instead of the
        row list; aggregates are bitwise-identical for any execution
        pattern. See :mod:`repro.parallel.stream`.
    row_sink:
        With ``stream=True``, also write the raw rows to this JSONL
        (default) or ``*.csv`` path instead of holding them in memory.
    shards, shard_backend, shard_dir:
        With ``shards > 1`` (requires ``stream=True``), run the sweep
        through the :mod:`repro.distrib` sharded orchestration layer:
        contiguous shard manifests, the named executor backend
        (``inline``/``process``/``subprocess``), per-shard checkpoints
        under ``shard_dir`` — with aggregates bitwise-identical to the
        serial path for any shard count or backend.

    Notes
    -----
    Thin shim over :meth:`repro.api.Solver.sweep` (bitwise-identical
    rows); hold a :class:`repro.api.Solver` directly to keep its warm
    state — and to resolve registered sweep scenarios by name. The shim
    is a leaf: no package module calls it.
    """
    from repro.api import Solver, SolverConfig

    solver = Solver(
        SolverConfig(
            jobs=jobs,
            chunk_size=chunk_size,
            checkpoint=None if checkpoint is None else str(checkpoint),
            resume=resume,
            stream=stream,
            row_sink=None if row_sink is None else str(row_sink),
            shards=shards,
            shard_backend=shard_backend,
            shard_dir=None if shard_dir is None else str(shard_dir),
        )
    )
    return solver.sweep(
        settings,
        scenario=scenario,
        methods=methods,
        objectives=objectives,
        n_platforms=n_platforms,
        rng=rng,
        progress=progress,
    )
