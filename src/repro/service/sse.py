"""Event framing and per-job fan-out for the streaming endpoints.

The service streams job events (row batches from a sweep's
:class:`~repro.parallel.stream.CallbackRowSink`, progress ticks,
terminal status) to any number of concurrent subscribers. Two wire
framings of the same event dicts:

* **SSE** (``text/event-stream``): ``event: <name>`` + ``data: <json>``
  blocks, the browser-native framing;
* **NDJSON** (``application/x-ndjson``): one JSON object per line with
  the event name inlined as ``"event"`` — trivial to consume from any
  HTTP client without an SSE parser.

:class:`JobEventBroker` is the fan-out hub: publishers (the job runner
threads) push event dicts, each subscriber drains its own queue. The
broker keeps **no history** — the guaranteed-complete streaming recipe
is to create the job held (``"hold": true``), subscribe, then start it
(see :mod:`repro.service.routes`).
"""

from __future__ import annotations

import json
import queue
import threading
from typing import Iterator

#: event names that end a stream (mirror terminal job statuses)
TERMINAL_EVENTS = ("done", "failed", "cancelled", "interrupted")


def format_sse(event: str, data: dict) -> bytes:
    """One Server-Sent-Events frame: named event + JSON payload."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"event: {event}\ndata: {payload}\n\n".encode("utf-8")


def format_ndjson(event: str, data: dict) -> bytes:
    """One NDJSON line; the event name rides inside the object."""
    merged = {"event": event, **data}
    payload = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return payload.encode("utf-8") + b"\n"


def sse_keepalive() -> bytes:
    """An SSE comment line — keeps idle connections from timing out."""
    return b": keep-alive\n\n"


def parse_sse(chunks: "Iterator[bytes]") -> "Iterator[tuple[str, dict]]":
    """Inverse of :func:`format_sse` over a byte-chunk stream.

    Yields ``(event, data)`` pairs; comment lines (keepalives) are
    skipped. Used by the test client and the example client — the
    service itself only writes.
    """
    buffer = b""
    for chunk in chunks:
        buffer += chunk
        while b"\n\n" in buffer:
            frame, buffer = buffer.split(b"\n\n", 1)
            event, data = None, None
            for line in frame.decode("utf-8").splitlines():
                if line.startswith(":"):
                    continue  # comment / keepalive
                if line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data = json.loads(line[len("data:"):].strip())
            if event is not None:
                yield event, data if data is not None else {}


class JobEventBroker:
    """Per-job publish/subscribe fan-out (in-process, thread-safe).

    Each subscriber owns a private unbounded :class:`queue.Queue`;
    ``publish`` copies the event reference into every live queue.
    Events are dicts ``{"event": name, ...payload}``. Subscribers that
    stop draining only grow their own queue — publishers never block.
    """

    def __init__(self):
        self._subscribers: "dict[str, list[queue.Queue]]" = {}
        self._lock = threading.Lock()

    def subscribe(self, job_id: str) -> "queue.Queue":
        q: "queue.Queue" = queue.Queue()
        with self._lock:
            self._subscribers.setdefault(job_id, []).append(q)
        return q

    def unsubscribe(self, job_id: str, q: "queue.Queue") -> None:
        with self._lock:
            subs = self._subscribers.get(job_id)
            if subs is None:
                return
            try:
                subs.remove(q)
            except ValueError:
                pass
            if not subs:
                del self._subscribers[job_id]

    def publish(self, job_id: str, event: str, data: "dict | None" = None) -> None:
        payload = {"event": event, **(data or {})}
        with self._lock:
            subs = list(self._subscribers.get(job_id, ()))
        for q in subs:
            q.put(payload)
