"""Saving and loading experiment rows (JSON lines and CSV).

Paper-scale sweeps take hours; persisting rows lets the aggregation and
figure modules re-run instantly over stored results, and lets external
tools (pandas, R) consume them. JSON-lines is the lossless format; CSV
is the interoperable one.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.experiments.config import Setting
from repro.experiments.runner import ExperimentRow

_FIELDS = [
    "K", "connectivity", "heterogeneity", "mean_g", "mean_bw", "mean_maxcon",
    "replicate", "objective", "method", "value", "lp_value", "runtime",
    "n_lp_solves",
]


def row_to_dict(row: ExperimentRow) -> dict:
    """Flatten one row into a JSON/CSV-compatible dict."""
    out = row.setting.as_dict()
    out.update(
        replicate=row.replicate,
        objective=row.objective,
        method=row.method,
        value=row.value,
        lp_value=row.lp_value,
        runtime=row.runtime,
        n_lp_solves=row.n_lp_solves,
    )
    return out


def row_from_dict(data: dict) -> ExperimentRow:
    """Inverse of :func:`row_to_dict`."""
    return ExperimentRow(
        setting=Setting.from_dict(data),
        replicate=int(data["replicate"]),
        objective=str(data["objective"]),
        method=str(data["method"]),
        value=float(data["value"]),
        lp_value=float(data["lp_value"]),
        runtime=float(data["runtime"]),
        n_lp_solves=int(data["n_lp_solves"]),
    )


def save_rows_jsonl(rows: Iterable[ExperimentRow], path: "str | Path") -> int:
    """Write rows as JSON lines; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row_to_dict(row), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def load_rows_jsonl(path: "str | Path") -> list[ExperimentRow]:
    """Read rows previously written by :func:`save_rows_jsonl`."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(row_from_dict(json.loads(line)))
    return out


def save_rows_csv(rows: Sequence[ExperimentRow], path: "str | Path") -> int:
    """Write rows as CSV with a fixed header; returns the number written."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row_to_dict(row))
    return len(rows)


def load_rows_csv(path: "str | Path") -> list[ExperimentRow]:
    """Read rows previously written by :func:`save_rows_csv`."""
    out = []
    with Path(path).open() as fh:
        for record in csv.DictReader(fh):
            out.append(row_from_dict(record))
    return out
