"""Incremental campaign checkpoints (JSON lines, append-only).

A checkpoint file is a header line describing the campaign followed by
one line per completed task::

    {"kind": "campaign", "fingerprint": "<sha1>", "n_tasks": 12, ...}
    {"kind": "task", "id": "0/0", "result": <encoded>}
    {"kind": "task", "id": "0/1", "result": <encoded>}

Streaming aggregation additionally keeps the newest accumulator-state
snapshot in a small *sidecar* file (``<path>.state``, atomically
replaced on every :meth:`save_state`) — only the latest snapshot is
ever useful, so the sidecar stays O(accumulator) however long the
campaign runs, instead of growing the main file with superseded
records. The main file holds only the header and task records; any
other record kind (an in-file ``{"kind": "state"}`` snapshot included)
is refused on load with its file and line.

Records are flushed as they are written, so a sweep killed mid-flight
loses at most the in-progress tasks; re-running with ``resume=True``
replays the stored results and only executes the remainder. The
``fingerprint`` — a hash of the campaign definition including its seed
derivation — guards against resuming a checkpoint into a *different*
campaign, which would silently splice unrelated results together.

A truncated or corrupt trailing record (the signature of a crash
mid-write) is skipped with a :class:`CheckpointWarning` — never a crash:
the affected tasks simply re-run. On the first write after a resume the
file is truncated back to its last fully-valid record, so the corrupt
tail never survives into the resumed file.

Streaming integration (see :mod:`repro.parallel.stream`): when the
checkpoint is constructed with the campaign's ``ordered_task_ids``,
results already covered by the loaded snapshot are replaced by the
:data:`PREFOLDED` sentinel at load time — the engine still skips those
tasks, but their row payload is never held in memory. A snapshot whose
folded prefix is not fully backed by loaded task records (tampered or
diverged files) is discarded with a warning and the resume falls back
to plain record replay.

The encoding of task results is pluggable (``encode``/``decode``);
:meth:`repro.api.Solver.sweep` stores lists of
:class:`~repro.experiments.runner.ExperimentRow` via
:mod:`repro.experiments.persistence`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.util.errors import ReproError

# Plain stdlib getLogger, not repro.obs.get_logger: this module sits
# below repro.obs in the import graph (obs.metrics builds on
# repro.parallel.stream, which imports this module). __name__ is already
# namespaced under the "repro" root logger, whose NullHandler
# repro.obs.logging installs.
logger = logging.getLogger(__name__)


def _warn(message: str, stacklevel: int) -> None:
    """Surface a recoverable checkpoint anomaly on both channels:
    the stdlib warning (tests and callers filter on
    :class:`CheckpointWarning`) and the module logger (operators
    aggregating library logs)."""
    logger.warning(message)
    warnings.warn(message, CheckpointWarning, stacklevel=stacklevel + 1)


class CheckpointError(ReproError):
    """A checkpoint file is unreadable, or belongs to another campaign."""


class CheckpointWarning(UserWarning):
    """A recoverable checkpoint defect (e.g. a corrupt trailing record
    that will be dropped and recomputed)."""


class _PreFolded:
    """Sentinel for task results already folded into a streaming
    aggregate snapshot: the task is complete, its rows are not retained."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<pre-folded>"


#: singleton sentinel stored in :attr:`CampaignCheckpoint.completed` for
#: tasks whose rows live only inside a streamed aggregate snapshot
PREFOLDED = _PreFolded()


def campaign_fingerprint(payload: Any) -> str:
    """Stable hash of a JSON-serialisable campaign description."""
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()


class CampaignCheckpoint:
    """Append-only task-result store for one campaign.

    Parameters
    ----------
    path:
        Checkpoint file. Created (with its parent directory) on the
        first :meth:`record`; truncated unless ``resume=True``.
    fingerprint:
        Campaign identity (see :func:`campaign_fingerprint`). On resume
        a mismatch raises :class:`CheckpointError` instead of mixing
        results from different campaigns.
    resume:
        Load previously completed tasks instead of starting fresh.
    encode, decode:
        Task-result (de)serialisers; default to identity (results must
        then be plain JSON values).
    meta:
        Extra JSON-serialisable fields stored in the header line for
        humans / external tools.
    ordered_task_ids:
        The campaign's task ids in task-index order. Only needed for
        streaming resume: it lets a loaded ``state`` snapshot identify
        (and drop the payload of) the prefix of tasks it already covers.
    snapshot_validator:
        Optional predicate over a loaded snapshot payload. A snapshot it
        rejects (e.g. an accumulator state written by an older format
        version, see :func:`repro.parallel.stream.snapshot_compatible`)
        is discarded with a :class:`CheckpointWarning` *before* it can
        release any task payloads — the resume falls back to plain
        record replay instead of crashing on an unrestorable state.
    """

    def __init__(
        self,
        path: "str | Path",
        fingerprint: str = "",
        resume: bool = False,
        encode: "Callable[[Any], Any] | None" = None,
        decode: "Callable[[Any], Any] | None" = None,
        meta: "dict | None" = None,
        ordered_task_ids: "Sequence[str] | None" = None,
        snapshot_validator: "Callable[[dict], bool] | None" = None,
    ):
        self.path = Path(path)
        #: sidecar holding the newest streaming-aggregation snapshot
        self.state_path = self.path.with_name(self.path.name + ".state")
        self.fingerprint = fingerprint
        self.encode = encode if encode is not None else (lambda r: r)
        self.decode = decode if decode is not None else (lambda r: r)
        self.meta = dict(meta or {})
        self.completed: dict[str, Any] = {}
        #: newest accumulator snapshot seen (loaded or saved), if any
        self.saved_state: "dict | None" = None
        self.ordered_task_ids = (
            [str(t) for t in ordered_task_ids]
            if ordered_task_ids is not None
            else None
        )
        self.snapshot_validator = snapshot_validator
        self._fh = None
        #: byte offset of the end of the last fully-valid record loaded;
        #: None means "no prior file content to preserve"
        self._valid_end: "int | None" = None
        self._has_header = False
        if resume and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        header = None
        lineno = 0
        for line_bytes in raw.splitlines(keepends=True):
            lineno += 1
            line = line_bytes.decode("utf-8", errors="replace").strip()
            if not line:
                offset += len(line_bytes)
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Trailing partial line from an interrupted write: drop
                # it (and anything after) — those tasks simply re-run.
                _warn(
                    f"{self.path}:{lineno}: dropping truncated/corrupt "
                    "record (and any records after it); the affected "
                    "tasks will be recomputed",
                    stacklevel=3,
                )
                break
            kind = record.get("kind")
            if kind == "campaign":
                header = record
                if (
                    self.fingerprint
                    and record.get("fingerprint") != self.fingerprint
                ):
                    raise CheckpointError(
                        f"{self.path} belongs to a different campaign "
                        f"(fingerprint {record.get('fingerprint')!r} != "
                        f"{self.fingerprint!r}); refusing to resume"
                    )
                self._has_header = True
            elif kind == "task":
                if header is None:
                    raise CheckpointError(
                        f"{self.path}:{lineno}: task record before the "
                        "campaign header"
                    )
                try:
                    self.completed[str(record["id"])] = self.decode(
                        record["result"]
                    )
                except Exception as exc:
                    # A structurally-valid line whose payload cannot be
                    # decoded (crash mid-write through a buffering layer,
                    # manual edit): recoverable exactly like truncation.
                    _warn(
                        f"{self.path}:{lineno}: dropping undecodable task "
                        f"record ({exc!r}) and any records after it; the "
                        "affected tasks will be recomputed",
                        stacklevel=3,
                    )
                    break
            else:
                raise CheckpointError(
                    f"{self.path}:{lineno}: unknown record kind {kind!r}"
                )
            offset += len(line_bytes)
        self._valid_end = offset
        self._load_state_sidecar()
        self._discard_incompatible_snapshot()
        self._drop_prefolded_payloads()

    def _load_state_sidecar(self) -> None:
        """Read the snapshot sidecar, the only home of snapshots."""
        if not self.state_path.exists():
            return
        try:
            record = json.loads(self.state_path.read_text())
        except (OSError, json.JSONDecodeError):
            _warn(
                f"{self.state_path}: unreadable snapshot sidecar; the "
                "resume falls back to task-record replay",
                stacklevel=4,
            )
            return
        if self.fingerprint and record.get("fingerprint") not in (
            "", self.fingerprint
        ):
            raise CheckpointError(
                f"{self.state_path} belongs to a different campaign "
                f"(fingerprint {record.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); refusing to resume"
            )
        self.saved_state = record.get("state")

    def _discard_incompatible_snapshot(self) -> None:
        """Drop a snapshot the caller's validator rejects.

        Must run *before* :meth:`_drop_prefolded_payloads`: once prefix
        payloads are replaced by the sentinel the task records can no
        longer be replayed, so an unrestorable snapshot (older
        accumulator state format, foreign structure) has to be discarded
        while full record replay is still possible.
        """
        if self.saved_state is None or self.snapshot_validator is None:
            return
        try:
            compatible = bool(self.snapshot_validator(self.saved_state))
        except Exception:
            compatible = False
        if not compatible:
            _warn(
                f"{self.state_path}: snapshot is incompatible with this "
                "version (stale state format?); discarding it and "
                "replaying task records instead",
                stacklevel=4,
            )
            self.saved_state = None

    def _drop_prefolded_payloads(self) -> None:
        """Replace snapshot-covered prefix results with the sentinel.

        A snapshot claiming more folded tasks than the loaded records
        back (tampered/diverged files) is discarded with a warning —
        plain record replay is always a safe fallback.
        """
        if self.saved_state is None or self.ordered_task_ids is None:
            return
        n_folded = int(self.saved_state.get("n_folded", 0))
        prefix = self.ordered_task_ids[:n_folded]
        if any(task_id not in self.completed for task_id in prefix):
            _warn(
                f"{self.path}: snapshot covers {n_folded} tasks but the "
                "checkpoint records do not; discarding the snapshot and "
                "replaying task records instead",
                stacklevel=4,
            )
            self.saved_state = None
            return
        for task_id in prefix:
            self.completed[task_id] = PREFOLDED

    # ------------------------------------------------------------------
    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._valid_end is not None and self.path.exists():
                # Resuming: drop whatever trailed the last valid record
                # (truncated line, corrupt tail) and append after it. A
                # crash can flush a record's JSON body without its
                # newline (record() issues two buffered writes); such a
                # line is valid data but must be re-terminated, or the
                # next append would join two records on one line and a
                # later resume would drop both as corrupt.
                needs_newline = False
                with self.path.open("r+b") as fh:
                    fh.truncate(self._valid_end)
                    if self._valid_end > 0:
                        fh.seek(self._valid_end - 1)
                        needs_newline = fh.read(1) != b"\n"
                self._fh = self.path.open("a")
                if needs_newline:
                    self._fh.write("\n")
                if not self._has_header:
                    self._write_header()
            else:
                self._fh = self.path.open("w")
                self._write_header()
                # a fresh campaign must not inherit a stale snapshot
                self.state_path.unlink(missing_ok=True)
        return self._fh

    def _write_header(self) -> None:
        header = {
            "kind": "campaign",
            "fingerprint": self.fingerprint,
            **self.meta,
        }
        self._fh.write(json.dumps(header, sort_keys=True, default=str))
        self._fh.write("\n")
        self._has_header = True

    def _write_task(self, task_id: str, result: Any) -> None:
        record = {
            "kind": "task",
            "id": str(task_id),
            "result": self.encode(result),
        }
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")

    # ------------------------------------------------------------------
    def record(self, task_id: str, result: Any) -> None:
        """Store one finished task and flush it to disk immediately."""
        fh = self._open()
        self._write_task(task_id, result)
        fh.flush()
        self.completed[str(task_id)] = result

    def save_state(self, payload: dict) -> None:
        """Atomically replace the snapshot sidecar with ``payload``.

        Only the newest snapshot matters (later ones strictly extend the
        folded prefix), so the sidecar stays O(accumulator state) for
        any campaign length — never appended, always replaced. The main
        checkpoint must be durable first (task records a snapshot covers
        are always flushed before the fold reaches them), so a crash
        between record and snapshot merely replays a few extra tasks.
        """
        self._open()  # ensure the directory/header exist first
        tmp = self.state_path.with_name(self.state_path.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "kind": "state",
                    "fingerprint": self.fingerprint,
                    "state": payload,
                },
                sort_keys=True,
            )
        )
        os.replace(tmp, self.state_path)
        self.saved_state = payload

    def mark_folded(self, task_id: str) -> None:
        """Release a task's in-memory payload once a streaming fold has
        consumed it (the durable record on disk is untouched)."""
        task_id = str(task_id)
        if task_id in self.completed:
            self.completed[task_id] = PREFOLDED

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
