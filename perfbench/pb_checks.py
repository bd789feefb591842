"""Output checks, run after the timed phase.

Each check returns a list of problems (empty when the output is right).
A workload counts every op with a problem as failed. The checks compare
against references computed independently of the timed path; none of
them compares against a stored digest, because outputs may legitimately
differ with the BLAS thread count.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

#: relative tolerance of every value comparison
REL_TOL = 1e-9

#: report fields that legitimately differ between two solves of one input
VOLATILE_REPORT_FIELDS = ("runtime", "cache_stats")

#: accumulator tables that hold wall-clock data
VOLATILE_TABLES = ("runtime_mean_by_k",)


def _canonical(data: Any) -> str:
    # JSON text compares NaN equal to NaN and keeps every float digit
    return json.dumps(data, sort_keys=True)


def check_sweep_task(rows: Iterable) -> "list[str]":
    """One sweep task's rows: finite values, none above the LP bound.

    ``lp_value`` is the HiGHS optimum of the task's relaxation, so no
    heuristic may beat it by more than :data:`REL_TOL` relative.
    """
    problems = []
    for row in rows:
        value, bound = float(row.value), float(row.lp_value)
        if not math.isfinite(value):
            problems.append(f"{row.method}: value {value!r} is not finite")
        elif value > bound + REL_TOL * abs(bound):
            problems.append(
                f"{row.method}: value {value!r} exceeds LP bound {bound!r}"
            )
    return problems


def check_sweep_tables(streamed: dict, reference: dict) -> "list[str]":
    """Streamed accumulator tables against the in-memory reference fold."""
    problems = []
    for key in sorted(set(streamed) | set(reference)):
        if key in VOLATILE_TABLES:
            continue
        if _canonical(streamed.get(key)) != _canonical(reference.get(key)):
            problems.append(f"table {key!r} differs from the reference fold")
    return problems


def check_solve_response(status: int, body: bytes, reference: dict) -> "list[str]":
    """One ``POST /solve`` response against a direct facade solve.

    ``reference`` is ``SolveReport.to_dict()`` of the direct solve; every
    field but :data:`VOLATILE_REPORT_FIELDS` must match exactly.
    """
    if status != 200:
        return [f"status {status}: {body[:200]!r}"]
    try:
        report = json.loads(body)["report"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable response body: {exc!r}"]
    problems = []
    for key in sorted(set(report) | set(reference)):
        if key in VOLATILE_REPORT_FIELDS:
            continue
        if _canonical(report.get(key)) != _canonical(reference.get(key)):
            problems.append(f"field {key!r} differs from the direct solve")
    return problems


def check_online_value(value: float, reference: float) -> "list[str]":
    """One online step's LP value against a cold HiGHS solve."""
    if not math.isfinite(value) or abs(value - reference) > REL_TOL * abs(reference):
        return [f"value {value!r} differs from HiGHS {reference!r}"]
    return []
