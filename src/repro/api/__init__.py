"""Public solver API: configured, stateful, scenario-aware.

The facade in three moves::

    from repro.api import Solver, SolverConfig, build_scenario

    solver = Solver(SolverConfig(method="lprg", objective="maxmin"))
    report = solver.solve(build_scenario("grid5000"))
    reports = solver.solve_many(problems, rng=0)     # reuses warm state
    rows = solver.sweep(settings, scenario="calibrated")

:class:`SolverConfig` holds every knob, typed and validated;
:class:`Solver` owns cross-call warm state (LP templates, variable
indices, the campaign engine) so repeated solves of related instances
stop cold-starting; the scenario registry names platform/application
scenarios the same way the heuristic registry names methods.
``Solver.solve``, ``Solver.solve_many`` and ``Solver.sweep`` are the
package's one way to solve, batch and sweep.
"""

from repro.api.config import (
    BranchAndBoundOptions,
    GreedyOptions,
    IteratedLPRGOptions,
    LPRROptions,
    MILPOptions,
    MethodOptions,
    SolverConfig,
    config_fingerprint,
    options_class_for,
)
from repro.api.report import SolveReport
from repro.obs.options import TelemetryOptions
from repro.api.scenarios import (
    ScenarioInfo,
    ScenarioRegistry,
    available_scenarios,
    build_scenario,
    register_scenario,
    scenario_info,
    scenario_registry,
)
from repro.api.solver import Solver, SolverState
from repro.parallel.engine import QuarantineError, RetryPolicy, TaskFailure
from repro.parallel.stream import SweepAccumulator

__all__ = [
    # configuration
    "SolverConfig",
    "MethodOptions",
    "GreedyOptions",
    "LPRROptions",
    "IteratedLPRGOptions",
    "MILPOptions",
    "BranchAndBoundOptions",
    "options_class_for",
    "config_fingerprint",
    "TelemetryOptions",
    "RetryPolicy",
    "TaskFailure",
    "QuarantineError",
    # solving
    "Solver",
    "SolverState",
    "SolveReport",
    "SweepAccumulator",
    # scenarios
    "ScenarioRegistry",
    "ScenarioInfo",
    "scenario_registry",
    "register_scenario",
    "available_scenarios",
    "scenario_info",
    "build_scenario",
]
