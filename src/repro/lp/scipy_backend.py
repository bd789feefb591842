"""HiGHS backend for the rational relaxation (scipy.optimize.linprog).

This is the production solver; the paper used the ``lp_solve`` Simplex
package, for which :mod:`repro.lp.revised` is the in-repo stand-in.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.builder import LPInstance
from repro.lp.solution import LPSolution
from repro.util.errors import InfeasibleError, SolverError, UnboundedError

_STATUS_OK = 0
_STATUS_ITERATION_LIMIT = 1
_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3


def solve_lp_scipy(instance: LPInstance) -> LPSolution:
    """Solve ``maximize obj @ x s.t. A_ub x <= b_ub, lb <= x <= ub``.

    Raises
    ------
    InfeasibleError / UnboundedError / SolverError
        Mapped from the HiGHS status codes.
    """
    result = linprog(
        c=-instance.obj,  # linprog minimises
        A_ub=instance.A_ub,
        b_ub=instance.b_ub,
        bounds=instance.bounds_list(),
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
    x = np.asarray(result.x, dtype=float)
    return LPSolution(x=x, value=float(-result.fun), index=instance.index)
