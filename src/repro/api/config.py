"""Typed, validated solver configuration.

:class:`SolverConfig` holds every knob the library grew — the campaign
options (``jobs``, ``chunk_size``, ``checkpoint``/``resume``), the LP
re-solve options (``warm_start``, ``lp_backend``), and the per-method
algorithm options — in one frozen dataclass that validates on
construction, round-trips through ``to_dict``/``from_dict``, and
rejects unknown option names with a did-you-mean suggestion instead of
silently ignoring them (a removed option is named as removed, see
:data:`repro.heuristics.base.REMOVED_OPTIONS`).

Per-method options are *typed sub-configs* (:class:`GreedyOptions`,
:class:`LPRROptions`, ...): the config carries exactly one, matching its
``method``, and :meth:`SolverConfig.for_method` builds the right one
from flat keyword arguments.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.objectives import get_objective
from repro.heuristics.base import (
    check_lp_backend,
    get_heuristic,
    unknown_option_error,
)
from repro.parallel.engine import RetryPolicy
from repro.util.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distrib.supervise import SupervisionOptions
    from repro.dynamic.options import DynamicOptions
    from repro.obs.options import TelemetryOptions

#: built-in shard executor backends (mirrors
#: :data:`repro.distrib.SHARD_BACKENDS`; custom registered backends are
#: also accepted — validation consults the live registry)
SHARD_BACKENDS = ("inline", "process", "subprocess")


@dataclass(frozen=True)
class MethodOptions:
    """Base (and empty) per-method option set.

    Methods without algorithm-specific knobs (``lpr``, ``lprg``, ``lp``)
    use this class directly; the others subclass it with typed fields.
    ``warm_start`` and ``lp_backend`` are *not* here — they are
    config-level LP knobs shared by every session-consuming method.
    """

    def to_kwargs(self) -> dict:
        """The options as keyword arguments for ``Heuristic.run``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        return self.to_kwargs()


@dataclass(frozen=True)
class GreedyOptions(MethodOptions):
    """Options of the greedy heuristic G."""

    #: step-3 selection rule: the paper's prose ("intuition") or its
    #: garbled printed formula ("literal", the E14 ablation)
    selection: str = "intuition"

    def __post_init__(self):
        if self.selection not in ("intuition", "literal"):
            raise SolverError(
                f"selection must be 'intuition' or 'literal', "
                f"got {self.selection!r}"
            )


@dataclass(frozen=True)
class LPRROptions(MethodOptions):
    """Options of LPRR randomized rounding (both variants)."""

    #: fix every currently-integral beta after each LP solve instead of
    #: one route per solve (slashes the LP count, benchmark E7)
    eager_integer_fixing: bool = False


@dataclass(frozen=True)
class IteratedLPRGOptions(MethodOptions):
    """Options of the iterated-LPRG extension heuristic."""

    #: residual re-solve rounds before the greedy mop-up
    max_iters: int = 4


@dataclass(frozen=True)
class MILPOptions(MethodOptions):
    """Options of the exact HiGHS MILP solver."""

    time_limit: "float | None" = None


@dataclass(frozen=True)
class BranchAndBoundOptions(MethodOptions):
    """Options of the bundled branch-and-bound exact solver."""

    max_nodes: int = 10_000


#: canonical method name -> its typed option class
OPTION_CLASSES: dict[str, type] = {
    "greedy": GreedyOptions,
    "lprr": LPRROptions,
    "lprr-eq": LPRROptions,
    "lprg-it": IteratedLPRGOptions,
    "milp": MILPOptions,
    "bnb": BranchAndBoundOptions,
}


def options_class_for(method: str) -> type:
    """The :class:`MethodOptions` subclass for a canonical method name."""
    return OPTION_CLASSES.get(method, MethodOptions)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a :class:`repro.api.Solver` needs, validated up front.

    Parameters
    ----------
    method:
        Any registered algorithm name or alias (canonicalised, so
        ``"g"`` stores as ``"greedy"``). Unknown names raise
        ``ValueError``, as :func:`~repro.heuristics.base.get_heuristic`
        does.
    objective:
        ``None`` (default) solves each problem under its own objective;
        ``"maxmin"``/``"sum"`` re-derives every incoming problem under
        the named objective before solving.
    seed:
        Default RNG policy: the seed used when a call does not pass its
        own ``rng``. ``None`` draws fresh entropy per call.
    lp_backend, warm_start:
        The LP re-solve knobs, applied to every method that supports
        them. ``lp_backend`` is ``"session"`` (default: warm-started
        revised-simplex :class:`~repro.lp.session.LPSession`) or
        ``"scipy"`` (a fresh HiGHS solve per LP) and applies to LPRR and
        iterated LPRG; ``warm_start`` applies to LPRR, branch-and-bound
        and :meth:`~repro.api.Solver.run_online`.
    jobs, chunk_size:
        The PR-1 process-pool knobs for ``solve_many``/``sweep``
        (results are bitwise-identical for any value).
    checkpoint, resume:
        Incremental sweep checkpointing (``resume`` requires
        ``checkpoint``).
    stream, row_sink:
        Streaming sweep aggregation (see :mod:`repro.parallel.stream`).
        With ``stream=True``, :meth:`repro.api.Solver.sweep` folds rows
        into constant-size accumulators as tasks complete and returns a
        :class:`~repro.parallel.stream.SweepAccumulator` instead of a
        row list — memory O(settings), not O(rows), with aggregate
        tables bitwise-identical for any ``jobs``/chunking/resume
        pattern. ``row_sink`` optionally streams the raw rows to a
        JSONL (default) or ``*.csv`` file; it requires ``stream=True``.
    shards, shard_backend, shard_dir:
        Sharded multi-host campaign orchestration (see
        :mod:`repro.distrib`). ``shards=N > 1`` makes
        :meth:`repro.api.Solver.sweep` partition the campaign into N
        contiguous shard manifests, dispatch them through
        ``shard_backend`` (``inline``/``process``/``subprocess`` or a
        registered custom backend) and merge the per-shard artifacts —
        aggregate tables (and the assembled ``row_sink``) stay
        bitwise-identical to the serial path for any shard count or
        backend. Requires ``stream=True`` (shards aggregate through the
        streaming fold) and replaces ``checkpoint`` (each shard keeps
        its own checkpoint under ``shard_dir``). ``shard_dir`` persists
        the shard artifacts for cross-invocation ``resume``; when
        ``None`` a temporary directory is used. With ``shards > 1``,
        ``jobs`` is how many shards the backend runs concurrently —
        ``1`` (the default) runs shards one at a time, exactly like
        ``jobs=1`` means serial everywhere else; results are identical
        for any value.
    retry:
        A :class:`~repro.parallel.engine.RetryPolicy` switching campaign
        execution (``solve_many``/``sweep``, and every shard of a
        sharded sweep) to supervised mode: transient infrastructure
        failures are retried with exponential backoff, deterministic
        task errors are quarantined into a structured
        :class:`~repro.parallel.engine.QuarantineError` report instead
        of crashing the whole campaign, and an optional per-task
        timeout bounds hung workers. Retries never change results:
        task seeds are stateless functions of the task index, so a
        re-executed task is bitwise the original. ``None`` (default)
        keeps the legacy fail-fast behavior.
    supervision:
        A :class:`~repro.distrib.supervise.SupervisionOptions` driving a
        sharded sweep through the
        :class:`~repro.distrib.supervise.ShardSupervisor`: shard-level
        retry/backoff and crash classification, optional shard
        timeouts, and straggler detection with work stealing
        (re-planning a slow shard's remaining task range into fresh
        manifests mid-campaign). Requires ``shards > 1``. Bitwise
        transparent for the same reason as ``retry``.
    dynamic:
        A :class:`~repro.dynamic.options.DynamicOptions` configuring
        :meth:`repro.api.Solver.run_online` (online re-scheduling over
        an event trace): simulation replay, oracle checking. ``None``
        (default) applies the :class:`DynamicOptions` defaults; the
        knob has no effect on static ``solve``/``sweep`` calls.
    telemetry:
        A :class:`~repro.obs.options.TelemetryOptions` switching on the
        solver-owned span tracer (with optional JSONL export) and
        metrics registry. ``None`` (default) means no telemetry is
        collected by the solver itself — ambient tracers installed by
        ``use_tracer`` (the CLI ``trace`` wrapper, the service job
        tracer) still observe it. Telemetry never changes results: see
        the determinism-invisibility contract in
        ``docs/architecture.md``.
    options:
        The per-method typed sub-config; ``None`` means the method's
        defaults. Must be exactly the class of :func:`options_class_for`.
    """

    method: str = "lprg"
    objective: "str | None" = None
    seed: "int | None" = None
    lp_backend: str = "session"
    warm_start: bool = True
    jobs: int = 1
    chunk_size: "int | None" = None
    checkpoint: "str | None" = None
    resume: bool = False
    stream: bool = False
    row_sink: "str | None" = None
    shards: int = 1
    shard_backend: str = "process"
    shard_dir: "str | None" = None
    retry: "RetryPolicy | None" = None
    supervision: "SupervisionOptions | None" = None
    dynamic: "DynamicOptions | None" = None
    telemetry: "TelemetryOptions | None" = None
    options: "MethodOptions | None" = None

    def __post_init__(self):
        heuristic = get_heuristic(self.method)  # ValueError when unknown
        object.__setattr__(self, "method", heuristic.name)
        if self.objective is not None:
            object.__setattr__(
                self, "objective", get_objective(self.objective).name
            )
        check_lp_backend(self.lp_backend)
        if self.seed is not None:
            if not isinstance(self.seed, (int, np.integer)):
                raise SolverError(
                    f"seed must be an int or None, got {self.seed!r}"
                )
            object.__setattr__(self, "seed", int(self.seed))
        # Types before ranges: a JSON "false" is truthy, so a flag read
        # for truth would switch on, and a str count would fail below
        # with a comparison error that names no field.
        for name in ("warm_start", "resume", "stream"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SolverError(f"{name!r} must be a bool, got {value!r}")
        for name in ("jobs", "chunk_size", "shards"):
            value = getattr(self, name)
            if value is None and name == "chunk_size":
                continue
            if isinstance(value, bool) or not isinstance(
                value, (int, np.integer)
            ):
                raise SolverError(f"{name!r} must be an int, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.jobs < 1:
            raise SolverError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise SolverError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )
        if self.row_sink is not None and not self.stream:
            raise SolverError(
                "row_sink requires stream=True (raw rows are only "
                "diverted to a sink under streaming aggregation)"
            )
        if self.shards < 1:
            raise SolverError(f"shards must be >= 1, got {self.shards}")
        if self.shard_backend not in SHARD_BACKENDS:
            # non-built-in name: consult the live registry (custom
            # backends) — imported lazily so the common case never
            # pulls the distrib package into a plain solve
            from repro.distrib.executor import available_shard_backends

            if self.shard_backend not in available_shard_backends():
                raise SolverError(
                    f"shard_backend must be one of "
                    f"{tuple(available_shard_backends())}, "
                    f"got {self.shard_backend!r}"
                )
        if self.shard_dir is not None and self.shards < 2:
            raise SolverError(
                "shard_dir requires shards > 1 (there is nothing to "
                "shard otherwise)"
            )
        if self.shards > 1:
            if not self.stream:
                raise SolverError(
                    "shards > 1 requires stream=True: sharded campaigns "
                    "aggregate through the streaming fold and return a "
                    "SweepAccumulator"
                )
            if self.chunk_size is not None:
                raise SolverError(
                    "chunk_size has no effect with shards > 1 (each "
                    "shard runs its tasks inline); shard granularity is "
                    "controlled by the shard count itself"
                )
            if self.checkpoint is not None:
                raise SolverError(
                    "shards > 1 is incompatible with a campaign-level "
                    "checkpoint: each shard keeps its own checkpoint "
                    "under shard_dir"
                )
            if self.resume and self.shard_dir is None:
                raise SolverError(
                    "resuming a sharded campaign requires a persistent "
                    "shard_dir"
                )
        elif self.resume and not self.checkpoint:
            raise SolverError("resume=True requires a checkpoint path")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise SolverError(
                f"retry must be a RetryPolicy or None, got {self.retry!r}"
            )
        if self.supervision is not None:
            # lazy for the same reason as the backend-registry lookup:
            # a plain solve never pulls in the distrib package
            from repro.distrib.supervise import SupervisionOptions

            if not isinstance(self.supervision, SupervisionOptions):
                raise SolverError(
                    f"supervision must be a SupervisionOptions or None, "
                    f"got {self.supervision!r}"
                )
            if self.shards < 2:
                raise SolverError(
                    "supervision requires shards > 1 (the shard "
                    "supervisor manages shard-level retry and stealing; "
                    "use retry= for task-level supervision)"
                )
        if self.dynamic is not None:
            # lazy like supervision: static solves never import dynamic
            from repro.dynamic.options import DynamicOptions

            if not isinstance(self.dynamic, DynamicOptions):
                raise SolverError(
                    f"dynamic must be a DynamicOptions or None, "
                    f"got {self.dynamic!r}"
                )
        if self.telemetry is not None:
            from repro.obs.options import TelemetryOptions

            if not isinstance(self.telemetry, TelemetryOptions):
                raise SolverError(
                    f"telemetry must be a TelemetryOptions or None, "
                    f"got {self.telemetry!r}"
                )
        expected = options_class_for(self.method)
        if self.options is None:
            object.__setattr__(self, "options", expected())
        elif type(self.options) is not expected:
            raise SolverError(
                f"method {self.method!r} takes {expected.__name__}, "
                f"got {type(self.options).__name__}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def for_method(cls, method: str = "lprg", **kwargs) -> "SolverConfig":
        """Build a config from a method name and flat keyword options.

        Keywords are routed to config fields or to the method's option
        class; anything else raises :class:`SolverError` naming the
        nearest valid option.
        """
        heuristic = get_heuristic(method)  # ValueError when unknown
        opts_cls = options_class_for(heuristic.name)
        config_names = {
            f.name for f in fields(cls) if f.name not in ("method", "options")
        }
        option_names = {f.name for f in fields(opts_cls)}
        config_kwargs: dict[str, Any] = {}
        option_kwargs: dict[str, Any] = {}
        for key, value in kwargs.items():
            if key in config_names:
                config_kwargs[key] = value
            elif key in option_names:
                option_kwargs[key] = value
            else:
                raise unknown_option_error(
                    key, heuristic.name, config_names | option_names
                )
        return cls(
            method=heuristic.name,
            options=opts_cls(**option_kwargs),
            **config_kwargs,
        )

    # ------------------------------------------------------------------
    def method_kwargs(self) -> dict:
        """Keyword arguments for ``Heuristic.run`` under this config.

        Method-specific options always pass through; the config-level LP
        knobs are attached only when the method declares support (so a
        greedy solve never sees ``warm_start``), with defaults matching
        the heuristics' own — bitwise compatibility with direct
        ``get_heuristic(...).run(...)`` calls.
        """
        heuristic = get_heuristic(self.method)
        kwargs = self.options.to_kwargs()
        if "warm_start" in heuristic.option_names:
            kwargs["warm_start"] = self.warm_start
        if "lp_backend" in heuristic.option_names:
            kwargs["lp_backend"] = self.lp_backend
        return kwargs

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (round-trips via ``from_dict``)."""
        return {
            "method": self.method,
            "objective": self.objective,
            "seed": self.seed,
            "lp_backend": self.lp_backend,
            "warm_start": self.warm_start,
            "jobs": self.jobs,
            "chunk_size": self.chunk_size,
            "checkpoint": self.checkpoint,
            "resume": self.resume,
            "stream": self.stream,
            "row_sink": self.row_sink,
            "shards": self.shards,
            "shard_backend": self.shard_backend,
            "shard_dir": self.shard_dir,
            "retry": None if self.retry is None else self.retry.to_dict(),
            "supervision": (
                None if self.supervision is None
                else self.supervision.to_dict()
            ),
            "dynamic": (
                None if self.dynamic is None else self.dynamic.to_dict()
            ),
            "telemetry": (
                None if self.telemetry is None else self.telemetry.to_dict()
            ),
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        method = data.pop("method", "lprg")
        options = data.pop("options", None) or {}
        retry = data.pop("retry", None)
        if isinstance(retry, dict):
            retry = RetryPolicy.from_dict(retry)
        supervision = data.pop("supervision", None)
        if isinstance(supervision, dict):
            from repro.distrib.supervise import SupervisionOptions

            supervision = SupervisionOptions.from_dict(supervision)
        dynamic = data.pop("dynamic", None)
        if isinstance(dynamic, dict):
            from repro.dynamic.options import DynamicOptions

            dynamic = DynamicOptions.from_dict(dynamic)
        telemetry = data.pop("telemetry", None)
        if isinstance(telemetry, dict):
            from repro.obs.options import TelemetryOptions

            telemetry = TelemetryOptions.from_dict(telemetry)
        heuristic = get_heuristic(method)
        config_names = {
            f.name for f in fields(cls) if f.name not in ("method", "options")
        }
        for key in data:
            if key not in config_names:
                raise unknown_option_error(key, heuristic.name, config_names)
        opts_cls = options_class_for(heuristic.name)
        option_names = {f.name for f in fields(opts_cls)}
        for key in options:
            if key not in option_names:
                raise unknown_option_error(key, heuristic.name, option_names)
        return cls(
            method=heuristic.name,
            options=opts_cls(**options),
            retry=retry,
            supervision=supervision,
            dynamic=dynamic,
            telemetry=telemetry,
            **data,
        )


def config_fingerprint(config: SolverConfig) -> str:
    """Stable content hash of a :class:`SolverConfig`.

    sha256 over the canonical (sorted-key, compact) JSON encoding of
    :meth:`SolverConfig.to_dict` — equal configs hash equally across
    processes and sessions, so the hash can key caches and service
    routing (:class:`repro.service.SolverPool` keys warm solver
    instances by platform fingerprint + this hash).
    """
    payload = json.dumps(
        config.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
