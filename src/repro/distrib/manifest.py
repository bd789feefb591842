"""Shard manifests: the self-describing unit of multi-host campaigns.

A :class:`ShardManifest` is everything one host needs to run its slice
of a sweep campaign and nothing more: the full sweep definition (grid
settings, scenario, method/objective lists, replicate count and the
root :class:`numpy.random.SeedSequence` identity), the shard's
contiguous task-index range, and the on-disk paths its outputs land at
(per-shard checkpoint + accumulator-state sidecar, optional per-shard
row sink). Manifests are plain JSON files, so "dispatch a shard" is
"copy a file and run ``python -m repro.experiments shard run
<manifest.json>``" — which is exactly what the ``subprocess`` executor
backend does, standing in for a remote host.

Determinism
-----------
Sharding **never touches seed derivation**: the manifest carries the
campaign's root seed (entropy + spawn key + pool size), each shard
rebuilds the *full* ordered task list with the PR-1 stateless spawn
rule (``SeedSequence(root, spawn_key=(setting, replicate))``, see
:func:`repro.util.rng.child_seed_sequence`) and then slices its
``[task_start, task_stop)`` range. A task's seed — and therefore its
rows — is the same whether the campaign runs in one process, N pool
workers, or N hosts, for any shard count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.parallel.checkpoint import campaign_fingerprint
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import Scenario, Setting
    from repro.parallel.sweep import SweepTask

#: manifest schema version (bump on incompatible layout changes)
MANIFEST_VERSION = 1


class ShardError(ReproError):
    """A shard manifest, shard run, or shard merge is invalid."""


def plan_shards(n_tasks: int, n_shards: int) -> list[tuple[int, int]]:
    """Partition ``n_tasks`` into ``n_shards`` contiguous index ranges.

    Balanced: the first ``n_tasks % n_shards`` shards carry one extra
    task. More shards than tasks is legal — the surplus shards get empty
    ranges (they still run, producing empty-but-valid outputs, so a
    fixed fleet size never needs campaign-aware special-casing).

    >>> plan_shards(7, 3)
    [(0, 3), (3, 5), (5, 7)]
    >>> plan_shards(2, 4)
    [(0, 1), (1, 2), (2, 2), (2, 2)]
    """
    if n_tasks < 0:
        raise ShardError(f"n_tasks must be >= 0, got {n_tasks}")
    if n_shards < 1:
        raise ShardError(f"n_shards must be >= 1, got {n_shards}")
    base, extra = divmod(n_tasks, n_shards)
    ranges = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _seed_to_dict(root: np.random.SeedSequence) -> dict:
    entropy = root.entropy
    return {
        # JSON integers are arbitrary-precision in Python, so the (often
        # 128-bit) entropy round-trips exactly
        "entropy": list(entropy) if isinstance(entropy, (list, tuple)) else entropy,
        "entropy_is_list": isinstance(entropy, (list, tuple)),
        "spawn_key": list(root.spawn_key),
        "pool_size": root.pool_size,
    }


def _seed_from_dict(data: dict) -> np.random.SeedSequence:
    entropy = data["entropy"]
    if data.get("entropy_is_list"):
        entropy = [int(e) for e in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return np.random.SeedSequence(
        entropy=entropy,
        spawn_key=tuple(int(k) for k in data["spawn_key"]),
        pool_size=int(data["pool_size"]),
    )


@dataclass(frozen=True)
class ShardManifest:
    """One shard of one sweep campaign, ready to ship to a host.

    ``campaign_fingerprint`` is the PR-1 :func:`repro.parallel.sweep.
    sweep_fingerprint` of the whole campaign — identical across the
    campaign's manifests, so the merge layer can refuse to combine
    shards of different campaigns. ``fingerprint`` additionally pins the
    shard's own identity (index + task-range *start*), guarding each
    per-shard checkpoint against resuming into the wrong slice.
    ``task_stop`` is deliberately **not** part of the fingerprint:
    straggler re-planning (:func:`repro.distrib.supervise.steal_shard`)
    shrinks a slow shard's range in place, and the truncated shard must
    keep resuming from its own checkpoint — every record it already
    wrote still belongs to the shrunken range's prefix, so identity is
    ``(campaign, index, start)``, not the movable stop.
    """

    campaign: dict
    campaign_fingerprint: str
    n_tasks: int
    n_shards: int
    shard_index: int
    task_start: int
    task_stop: int
    checkpoint_path: str
    row_sink_path: "str | None" = None

    def __post_init__(self):
        if not 0 <= self.shard_index < self.n_shards:
            raise ShardError(
                f"shard_index {self.shard_index} out of range for "
                f"{self.n_shards} shards"
            )
        if not 0 <= self.task_start <= self.task_stop <= self.n_tasks:
            raise ShardError(
                f"task range [{self.task_start}, {self.task_stop}) invalid "
                f"for {self.n_tasks} tasks"
            )

    # ------------------------------------------------------------------
    @property
    def n_shard_tasks(self) -> int:
        return self.task_stop - self.task_start

    @property
    def fingerprint(self) -> str:
        """Checkpoint fingerprint of this shard (campaign + slice)."""
        return campaign_fingerprint(
            {
                "campaign": self.campaign_fingerprint,
                "shard_index": self.shard_index,
                "task_start": self.task_start,
            }
        )

    @property
    def state_path(self) -> Path:
        """The accumulator-state sidecar the shard run leaves behind
        (see :class:`repro.parallel.checkpoint.CampaignCheckpoint`)."""
        path = Path(self.checkpoint_path)
        return path.with_name(path.name + ".state")

    @property
    def heartbeat_path(self) -> Path:
        """Liveness/progress sidecar a running shard refreshes per task
        (read by the supervisor's straggler detection and the
        ``shard status`` CLI)."""
        return Path(self.checkpoint_path).with_suffix(".heartbeat")

    @property
    def shard_dir(self) -> Path:
        """The campaign directory every shard artifact lives in."""
        return Path(self.checkpoint_path).parent

    @property
    def manifest_path(self) -> Path:
        """This shard's canonical manifest file location."""
        return manifest_path_for(self.shard_dir, self.shard_index)

    # ------------------------------------------------------------------
    def rebuild_sweep(self) -> dict:
        """The campaign definition as live objects (settings, scenario,
        methods, objectives, n_platforms, root seed)."""
        from repro.experiments.config import Scenario, Setting

        campaign = self.campaign
        return {
            "settings": [Setting.from_dict(s) for s in campaign["settings"]],
            "scenario": Scenario.from_dict(campaign["scenario"]),
            "methods": tuple(campaign["methods"]),
            "objectives": tuple(campaign["objectives"]),
            "n_platforms": int(campaign["n_platforms"]),
            "root": _seed_from_dict(campaign["seed"]),
        }

    def shard_tasks(self) -> "list[SweepTask]":
        """This shard's slice of the campaign's ordered task list.

        The *full* list is rebuilt first (stateless seed spawning makes
        that pure arithmetic, no RNG draws), then sliced — so the tasks,
        their ids and their seeds are exactly those of the unsharded
        campaign.
        """
        from repro.parallel.sweep import build_sweep_tasks

        sweep = self.rebuild_sweep()
        tasks = build_sweep_tasks(
            sweep["settings"],
            sweep["scenario"],
            sweep["methods"],
            sweep["objectives"],
            sweep["n_platforms"],
            sweep["root"],
        )
        if len(tasks) != self.n_tasks:
            raise ShardError(
                f"manifest claims {self.n_tasks} campaign tasks but the "
                f"sweep definition expands to {len(tasks)}"
            )
        return tasks[self.task_start : self.task_stop]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "shard-manifest",
            "version": MANIFEST_VERSION,
            "campaign": self.campaign,
            "campaign_fingerprint": self.campaign_fingerprint,
            "n_tasks": self.n_tasks,
            "n_shards": self.n_shards,
            "shard_index": self.shard_index,
            "task_start": self.task_start,
            "task_stop": self.task_stop,
            "checkpoint_path": self.checkpoint_path,
            "row_sink_path": self.row_sink_path,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardManifest":
        if data.get("kind") != "shard-manifest":
            raise ShardError(
                f"not a shard manifest (kind={data.get('kind')!r})"
            )
        if data.get("version") != MANIFEST_VERSION:
            raise ShardError(
                f"unsupported shard manifest version {data.get('version')!r} "
                f"(expected {MANIFEST_VERSION})"
            )
        return cls(
            campaign=data["campaign"],
            campaign_fingerprint=str(data["campaign_fingerprint"]),
            n_tasks=int(data["n_tasks"]),
            n_shards=int(data["n_shards"]),
            shard_index=int(data["shard_index"]),
            task_start=int(data["task_start"]),
            task_stop=int(data["task_stop"]),
            checkpoint_path=str(data["checkpoint_path"]),
            row_sink_path=(
                None
                if data.get("row_sink_path") is None
                else str(data["row_sink_path"])
            ),
        )

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "ShardManifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ShardError(f"shard manifest {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ShardError(f"shard manifest {path} is not valid JSON: {exc}")
        return cls.from_dict(data)


def shard_artifact_name(shard_index: int, suffix: str) -> str:
    """Canonical shard-local file name (zero-padded for stable sorts)."""
    return f"shard-{shard_index:04d}{suffix}"


def build_shard_manifests(
    settings: "Sequence[Setting]",
    scenario: "Scenario",
    methods: Sequence[str],
    objectives: Sequence[str],
    n_platforms: int,
    root: np.random.SeedSequence,
    n_shards: int,
    shard_dir: "str | Path",
    row_sink: "str | Path | None" = None,
) -> list[ShardManifest]:
    """Plan a campaign into per-shard manifests under ``shard_dir``.

    One manifest per shard; checkpoint/sidecar/row-sink paths all live
    inside ``shard_dir``. ``row_sink`` is the campaign's *final* sink
    path — only its suffix matters here (each shard writes its own
    ``shard-NNNN.rows.<suffix>`` file; the merge layer concatenates them
    into the final path in task order).
    """
    from repro.parallel.sweep import build_sweep_tasks, sweep_fingerprint

    shard_dir = Path(shard_dir)
    tasks = build_sweep_tasks(
        settings, scenario, methods, objectives, n_platforms, root
    )
    fingerprint = sweep_fingerprint(
        settings, scenario, methods, objectives, n_platforms, root
    )
    campaign = {
        "settings": [s.as_dict() for s in settings],
        "scenario": scenario.as_dict(),
        "methods": list(methods),
        "objectives": list(objectives),
        "n_platforms": int(n_platforms),
        "seed": _seed_to_dict(root),
    }
    sink_suffix = None
    if row_sink is not None:
        suffix = Path(row_sink).suffix.lower()
        sink_suffix = ".rows.csv" if suffix == ".csv" else ".rows.jsonl"
    manifests = []
    for index, (start, stop) in enumerate(plan_shards(len(tasks), n_shards)):
        manifests.append(
            ShardManifest(
                campaign=campaign,
                campaign_fingerprint=fingerprint,
                n_tasks=len(tasks),
                n_shards=n_shards,
                shard_index=index,
                task_start=start,
                task_stop=stop,
                checkpoint_path=str(
                    shard_dir / shard_artifact_name(index, ".ckpt")
                ),
                row_sink_path=(
                    None
                    if sink_suffix is None
                    else str(shard_dir / shard_artifact_name(index, sink_suffix))
                ),
            )
        )
    return manifests


def manifest_path_for(shard_dir: "str | Path", shard_index: int) -> Path:
    """Where a shard's manifest file lives inside its campaign dir."""
    return Path(shard_dir) / shard_artifact_name(shard_index, ".manifest.json")


def write_manifests(
    manifests: Sequence[ShardManifest], shard_dir: "str | Path"
) -> list[Path]:
    """Persist every manifest to its canonical path; returns the paths."""
    return [
        manifest.save(manifest_path_for(shard_dir, manifest.shard_index))
        for manifest in manifests
    ]


def load_manifests(shard_dir: "str | Path") -> list[ShardManifest]:
    """Load every ``shard-*.manifest.json`` under ``shard_dir``."""
    shard_dir = Path(shard_dir)
    paths = sorted(shard_dir.glob("shard-*.manifest.json"))
    if not paths:
        raise ShardError(f"no shard manifests found under {shard_dir}")
    return [ShardManifest.load(p) for p in paths]
