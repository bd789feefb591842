"""``solve_many``: the legacy batched front-end, a shim over
:meth:`repro.api.Solver.solve_many`.

Solving many independent instances is the scaling move for LP-based
pipelines: a campaign of structurally identical problems (same platform,
different payoffs/objectives — the shape produced by the experiment
grid, parameter studies, or per-tenant what-if queries) shares one
solver's LP build cache, and fans out over worker processes through the
:class:`~repro.parallel.engine.CampaignEngine`.

Determinism: each instance receives its own stateless spawn child of the
batch seed (``rng -> child i`` for problem ``i``), so results are a pure
function of ``(problems, method, rng)`` — independent of ``jobs``,
chunking, and scheduling order. ``solve_many(ps, m, rng=s, jobs=4)`` is
bitwise-equal to ``jobs=1``.

The shim is a leaf: no package module calls it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import SteadyStateProblem
    from repro.heuristics.base import HeuristicResult


def solve_many(
    problems: "Sequence[SteadyStateProblem]",
    method: str = "lprg",
    rng=None,
    jobs: int = 1,
    chunk_size: "int | None" = None,
    **kwargs,
) -> "list[HeuristicResult]":
    """Solve many independent problems; results in input order.

    Parameters
    ----------
    problems:
        The instances to solve. Instances sharing a platform *object*
        also share one cached LP-variable index (within each worker
        process), which skips the O(K^2) index rebuild per LP.
    method:
        Any :func:`repro.core.solve.available_methods` name; applied to
        every instance.
    rng:
        Batch seed. Instance ``i`` solves under the ``i``-th stateless
        spawn child, so per-instance streams are reproducible and
        independent of ``jobs``.
    jobs:
        Worker processes; ``1`` solves inline (reference semantics).
    chunk_size:
        Tasks per pool submission (default: auto).
    **kwargs:
        Method options applied to every solve (e.g. ``warm_start=``,
        ``lp_backend=``); unknown names raise ``SolverError`` with a
        did-you-mean suggestion.

    Returns
    -------
    list[HeuristicResult]
        One result per problem, in the order given.

    Notes
    -----
    Thin shim over :meth:`repro.api.Solver.solve_many` (bitwise-
    identical output); hold a :class:`repro.api.Solver` directly to keep
    its warm state across *batches* too.
    """
    from repro.api import Solver

    solver = Solver.for_method(
        method, jobs=jobs, chunk_size=chunk_size, **kwargs
    )
    return solver.solve_many(problems, rng=rng)
