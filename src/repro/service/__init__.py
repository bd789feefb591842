"""Solver-as-a-service: the resident scheduling API.

The batch facade (:mod:`repro.api`) made repeated solves cheap within
one process; this package makes that warmth *resident*: a long-lived
HTTP service whose :class:`SolverPool` keeps one warm
:class:`~repro.api.Solver` per (platform fingerprint, config
fingerprint) pair, whose :class:`RequestCoalescer` batches compatible
concurrent solve requests into single bitwise-transparent
``solve_many`` calls, and whose sweep jobs stream their rows
incrementally (Server-Sent Events or NDJSON) straight from the
campaign's :class:`~repro.parallel.stream.CallbackRowSink` — in strict
task-index order, i.e. exactly the serial ``jobs=1`` reference fold.

Zero dependencies beyond the library itself: :func:`create_app` builds
a plain ASGI 3.0 app (host it under uvicorn, hypercorn, or the bundled
stdlib bridge via ``python -m repro.experiments serve``). A FastAPI
deployment mounts it alongside its own routers:
``FastAPI().mount("", create_app())`` is the whole recipe.

>>> from repro.service import SolverService, create_app
>>> from repro.service.testing import AsgiTestClient
>>> client = AsgiTestClient(create_app(max_workers=2))
>>> client.get("/healthz").json()
{'status': 'ok'}
>>> body = {"scenario": "das2", "seed": 0, "config": {"method": "greedy"}}
>>> client.post("/solve", body).json()["report"]["method"]
'greedy'
"""

from repro.service.app import SolverService, create_app
from repro.service.coalescer import RequestCoalescer
from repro.service.errors import JobNotFound, ServiceError
from repro.service.jobstore import (
    JOB_STATUSES,
    TERMINAL_STATUSES,
    JobRecord,
    JobStore,
    JsonlJobStore,
    MemoryJobStore,
    open_job_store,
)
from repro.service.pool import SolverPool
from repro.service.server import AsgiHTTPServer, run_server
from repro.service.sse import (
    JobEventBroker,
    format_ndjson,
    format_sse,
    parse_sse,
)

__all__ = [
    # application
    "SolverService",
    "create_app",
    "run_server",
    "AsgiHTTPServer",
    # building blocks
    "SolverPool",
    "RequestCoalescer",
    "JobEventBroker",
    "format_sse",
    "format_ndjson",
    "parse_sse",
    # job lifecycle
    "JobRecord",
    "JobStore",
    "MemoryJobStore",
    "JsonlJobStore",
    "open_job_store",
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    # errors
    "ServiceError",
    "JobNotFound",
]
