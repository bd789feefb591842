"""HiGHS backend for the rational relaxation (scipy.optimize.linprog).

This is the production solver; the paper used the ``lp_solve`` Simplex
package, for which :mod:`repro.lp.revised` is the in-repo stand-in.
Under an active :class:`~repro.lp.builder.LPBuildCache` each optimum is
memoized by the instance's content digest, so an identical instance is
answered from the memo instead of HiGHS. The box HiGHS solves and the
box the digest covers are both read from ``lb``/``ub`` at call time, so
an in-place bound write needs no notice to be seen by either.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.builder import LPInstance, active_build_cache
from repro.lp.solution import LPSolution
from repro.util.errors import InfeasibleError, SolverError, UnboundedError

_STATUS_OK = 0
_STATUS_ITERATION_LIMIT = 1
_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3


def solve_lp_scipy(instance: LPInstance) -> LPSolution:
    """Solve ``maximize obj @ x s.t. A_ub x <= b_ub, lb <= x <= ub``.

    With a build cache active (every :class:`repro.api.Solver` call
    installs its own), an instance whose content was solved before is a
    memo hit: the same ``x`` (a fresh copy) and value, bitwise, without
    calling HiGHS; a concurrent call on the same content waits for the
    first one's answer instead of solving it again. Failed solves are
    never memoized.

    Raises
    ------
    InfeasibleError / UnboundedError / SolverError
        Mapped from the HiGHS status codes.
    """
    cache = active_build_cache()
    if cache is None:
        x, value = _highs(instance)
        return LPSolution(x=x, value=value, index=instance.index)
    key = cache.solution_key(instance)
    memo = cache.fetch_solution(key)
    if memo is not None:
        x, value = memo
        return LPSolution(x=x, value=value, index=instance.index)
    try:
        x, value = _highs(instance)
    except BaseException:
        cache.release(key)
        raise
    cache.store_solution(key, x, value)
    return LPSolution(x=x, value=value, index=instance.index)


def _highs(instance: LPInstance) -> "tuple[np.ndarray, float]":
    """One HiGHS solve: the optimal ``(x, value)``, or the mapped error."""
    result = linprog(
        c=-instance.obj,  # linprog minimises
        A_ub=instance.A_ub,
        b_ub=instance.b_ub,
        bounds=np.column_stack((instance.lb, instance.ub)),
        method="highs",
    )
    if result.status == _STATUS_INFEASIBLE:
        raise InfeasibleError(f"LP infeasible: {result.message}")
    if result.status == _STATUS_UNBOUNDED:
        raise UnboundedError(f"LP unbounded: {result.message}")
    if result.status != _STATUS_OK or result.x is None:
        raise SolverError(
            f"LP solver failed (status {result.status}): {result.message}"
        )
    return np.asarray(result.x, dtype=float), float(-result.fun)
