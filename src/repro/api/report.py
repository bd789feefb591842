"""Structured solve reports.

A :class:`SolveReport` is a :class:`~repro.heuristics.base.
HeuristicResult` (so every existing consumer keeps working, including
the legacy ``solve`` shim whose callers expect that type) extended with
what the facade knows and the bare result does not: the exact
:class:`~repro.api.config.SolverConfig` the solve ran under, and the
facade's cross-call cache counters at the time of the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.heuristics.base import HeuristicResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import SolverConfig


@dataclass(repr=False)
class SolveReport(HeuristicResult):
    """One solve's result plus its configuration and facade statistics.

    Attributes (beyond :class:`HeuristicResult`)
    --------------------------------------------
    config:
        Echo of the :class:`SolverConfig` that produced this result.
    cache_stats:
        Snapshot of the owning solver's cross-call cache counters after
        this solve (LP template hits/cold builds, HiGHS memo hits, index
        adoptions) — the observability half of the reuse story.
    """

    config: "SolverConfig | None" = None
    cache_stats: dict = field(default_factory=dict)

    @property
    def lp_stats(self) -> "dict | None":
        """Per-run LP session statistics, when the method recorded any
        (simplex iteration counts, warm/cold solve split, dual repair
        steps, HiGHS fallbacks — see
        :class:`repro.lp.session.SessionStats`)."""
        return self.meta.get("lp_stats")

    @classmethod
    def from_result(
        cls,
        result: HeuristicResult,
        config: "SolverConfig",
        cache_stats: "dict | None" = None,
    ) -> "SolveReport":
        """Wrap a raw heuristic result; every base field is carried over
        unchanged, so the report is bitwise-equal to the result it wraps."""
        return cls(
            method=result.method,
            objective=result.objective,
            value=result.value,
            allocation=result.allocation,
            runtime=result.runtime,
            n_lp_solves=result.n_lp_solves,
            meta=result.meta,
            config=config,
            cache_stats=dict(cache_stats or {}),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation of the report.

        Everything a remote consumer (the :mod:`repro.service` result
        endpoint, a stored campaign log) needs: the base result fields,
        the allocation matrices, the config echo, the cache counters and
        the per-run ``lp_stats``. ``meta`` is *projected*, not carried
        wholesale — only its JSON-safe ``lp_stats`` entry survives (raw
        LP solution objects and numpy arrays do not round-trip through
        JSON). Floats round-trip bitwise (shortest-repr JSON).
        """
        allocation = None
        if self.allocation is not None:
            allocation = {
                "alpha": np.asarray(self.allocation.alpha).tolist(),
                "beta": np.asarray(self.allocation.beta).tolist(),
            }
        return {
            "method": self.method,
            "objective": self.objective,
            "value": float(self.value),
            "runtime": float(self.runtime),
            "n_lp_solves": int(self.n_lp_solves),
            "allocation": allocation,
            "config": None if self.config is None else self.config.to_dict(),
            "cache_stats": dict(self.cache_stats),
            "lp_stats": self.lp_stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        """Rebuild a report from :meth:`to_dict` output.

        The inverse of the JSON projection: base fields, allocation and
        config are reconstructed exactly; ``meta`` holds only the
        serialized ``lp_stats`` (when present), so
        ``from_dict(r.to_dict()).to_dict() == r.to_dict()`` always.
        """
        from repro.api.config import SolverConfig
        from repro.core.allocation import Allocation

        allocation = None
        if data.get("allocation") is not None:
            allocation = Allocation(
                alpha=np.asarray(data["allocation"]["alpha"], dtype=float),
                beta=np.asarray(data["allocation"]["beta"], dtype=float),
            )
        config = None
        if data.get("config") is not None:
            config = SolverConfig.from_dict(data["config"])
        meta = {}
        if data.get("lp_stats") is not None:
            meta["lp_stats"] = data["lp_stats"]
        return cls(
            method=str(data["method"]),
            objective=str(data["objective"]),
            value=float(data["value"]),
            allocation=allocation,
            runtime=float(data["runtime"]),
            n_lp_solves=int(data["n_lp_solves"]),
            meta=meta,
            config=config,
            cache_stats=dict(data.get("cache_stats") or {}),
        )
