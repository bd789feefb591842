"""Sweep campaigns: the experiment grid as engine tasks.

One :class:`SweepTask` is the smallest independently schedulable unit of
a Section-6 sweep: *one replicate platform of one grid point*, solved by
every requested method under every objective. Each task carries its own
:class:`numpy.random.SeedSequence`, derived statelessly from the sweep's
root seed (``root -> setting index -> replicate index``, see
:func:`repro.util.rng.child_seed_sequence`), so a task's random stream —
and therefore its rows — is a pure function of the task payload. That
is the whole determinism story: serial and parallel execution, any
chunking, and checkpoint resume all produce bitwise-identical values
because they run the same pure tasks and reassemble them in task order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.parallel.checkpoint import campaign_fingerprint
from repro.util.rng import child_seed_sequence, seed_sequence_of

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps `import
    # repro` from pulling the whole experiments package)
    from repro.experiments.config import Scenario, Setting


@dataclass(frozen=True)
class SweepTask:
    """One (grid point, replicate) unit of work, fully self-describing.

    ``setting_index`` ties the task back to its position in the sweep's
    setting list (and into its seed derivation); ``seed`` is the
    replicate's own seed sequence, carried explicitly so workers never
    need shared RNG state.
    """

    setting: Setting
    setting_index: int
    replicate: int
    seed: np.random.SeedSequence
    scenario: Scenario
    methods: tuple
    objectives: tuple

    @property
    def task_id(self) -> str:
        """Stable id used for checkpoint bookkeeping."""
        return f"{self.setting_index}/{self.replicate}"


def run_sweep_task(task: SweepTask) -> list:
    """Execute one task: returns its :class:`ExperimentRow` list.

    Module-level (picklable) so it can serve as a
    :class:`~repro.parallel.engine.CampaignEngine` worker.
    """
    from repro.experiments.runner import run_replicate

    return run_replicate(
        task.setting,
        task.replicate,
        scenario=task.scenario,
        methods=task.methods,
        objectives=task.objectives,
        rng=np.random.default_rng(task.seed),
    )


def build_sweep_tasks(
    settings: Sequence[Setting],
    scenario: Scenario,
    methods: Sequence[str],
    objectives: Sequence[str],
    n_platforms: int,
    rng,
) -> list[SweepTask]:
    """Expand a sweep definition into its ordered task list.

    Seed derivation mirrors the historical serial runner exactly: the
    root seed spawns one child per setting, which spawns one grandchild
    per replicate — so results are bit-for-bit those of the pre-engine
    ``run_sweep`` for any given seed.
    """
    root = seed_sequence_of(rng)
    tasks: list[SweepTask] = []
    for i, setting in enumerate(settings):
        setting_seed = child_seed_sequence(root, i)
        for rep in range(n_platforms):
            tasks.append(
                SweepTask(
                    setting=setting,
                    setting_index=i,
                    replicate=rep,
                    seed=child_seed_sequence(setting_seed, rep),
                    scenario=scenario,
                    methods=tuple(methods),
                    objectives=tuple(objectives),
                )
            )
    return tasks


def sweep_fingerprint(
    settings: Sequence[Setting],
    scenario: Scenario,
    methods: Sequence[str],
    objectives: Sequence[str],
    n_platforms: int,
    rng,
) -> str:
    """Campaign identity for checkpoint-resume safety.

    Any change to the grid, the scenario, the method/objective lists or
    the seed derivation yields a different fingerprint, making stale
    checkpoints fail loudly instead of contaminating results.
    """
    root = seed_sequence_of(rng)
    return campaign_fingerprint(
        {
            "settings": [s.as_dict() for s in settings],
            "scenario": scenario.as_dict(),
            "methods": list(methods),
            "objectives": list(objectives),
            "n_platforms": n_platforms,
            "seed_entropy": str(root.entropy),
            "seed_spawn_key": list(root.spawn_key),
        }
    )
