"""Core: the paper's contribution — multi-application steady-state
divisible-load scheduling.

The central objects are:

* :class:`~repro.core.application.Application` — a divisible-load
  application ``A_k`` with its payoff factor ``pi_k``;
* :class:`~repro.core.problem.SteadyStateProblem` — platform +
  applications + objective (program (7) of the paper);
* :class:`~repro.core.allocation.Allocation` — a candidate solution
  ``(alpha, beta)``;
* :func:`~repro.core.constraints.validate_allocation` — the steady-state
  equations (1)-(4) as a checkable predicate.

Solving goes through :class:`repro.api.Solver`.
"""

from repro.core.application import Application, applications_for_platform
from repro.core.allocation import Allocation
from repro.core.objectives import Objective, SUM, MAXMIN, get_objective
from repro.core.constraints import (
    validate_allocation,
    allocation_violations,
    ViolationReport,
)
from repro.core.problem import SteadyStateProblem

__all__ = [
    "Application",
    "applications_for_platform",
    "Allocation",
    "Objective",
    "SUM",
    "MAXMIN",
    "get_objective",
    "validate_allocation",
    "allocation_violations",
    "ViolationReport",
    "SteadyStateProblem",
]
