"""repro — steady-state scheduling of multiple divisible-load applications
on large-scale platforms.

A full reproduction of L. Marchal, Y. Yang, H. Casanova, Y. Robert,
*A realistic network/application model for scheduling divisible loads on
large-scale platforms* (IPDPS 2005 / INRIA RR-5197): the multi-cluster
platform model with realistic bandwidth sharing, the steady-state linear
program with SUM and MAXMIN objectives, the NP-completeness reduction,
the G / LPR / LPRG / LPRR heuristics, periodic-schedule reconstruction,
a flow-level simulator, and the full Section-6 evaluation harness.

Quickstart
----------
The public entry point is the :class:`Solver` facade: a typed, validated
:class:`SolverConfig` picks the algorithm and its options, and the
solver object keeps cross-call warm state (LP templates, variable
indices) so repeated solves of related instances stop cold-starting.
Scenarios — named platform/application setups, from testbed presets to
synthetic stress topologies — are built by name from the scenario
registry, the same way methods are picked by name from the method
registry (``method_info()`` lists them with their options).

>>> from repro import Solver, SolverConfig, build_scenario
>>> solver = Solver(SolverConfig(method="lprg", objective="maxmin"))
>>> report = solver.solve(build_scenario("das2"))
>>> report.value > 0
True
>>> report.config.method
'lprg'

Random Table-1-style platforms work exactly as before:

>>> from repro import PlatformSpec, generate_platform, SteadyStateProblem
>>> platform = generate_platform(
...     PlatformSpec(n_clusters=6, connectivity=0.5, heterogeneity=0.4,
...                  mean_g=250, mean_bw=30, mean_max_connect=10),
...     rng=42)
>>> problem = SteadyStateProblem(platform, objective="maxmin")
>>> solver.solve(problem).value > 0
True

Batch / parallel campaigns
--------------------------
``Solver.solve_many`` solves many independent instances — sharing the
solver's warm state inline, or fanning out over worker processes with
``SolverConfig(jobs=N)``; ``Solver.sweep`` runs Section-6 style grids
with checkpoint/resume. Every task derives its seed by stateless
``SeedSequence`` spawning, so results are **bitwise-identical** for any
``jobs``, chunking or resume pattern — parallelism only changes
wall-clock time, never a single float.

>>> problems = [SteadyStateProblem(platform, objective=o)
...             for o in ("maxmin", "sum")]
>>> [r.value > 0 for r in Solver.for_method("greedy").solve_many(
...      problems, rng=0)]
[True, True]

``Solver.solve``, ``Solver.solve_many`` and ``Solver.sweep`` are the
one way in; the CLI and the service call them too.
"""

from repro.api import (
    ScenarioInfo,
    ScenarioRegistry,
    SolveReport,
    Solver,
    SolverConfig,
    SweepAccumulator,
    TelemetryOptions,
    available_scenarios,
    build_scenario,
    register_scenario,
    scenario_info,
    scenario_registry,
)
from repro.dynamic import (
    DisruptionReport,
    DynamicOptions,
    EventTrace,
    OnlineScheduler,
    PlatformEvent,
)
from repro.core import (
    Allocation,
    Application,
    MAXMIN,
    SUM,
    SteadyStateProblem,
    ViolationReport,
    allocation_violations,
    applications_for_platform,
    get_objective,
    validate_allocation,
)
from repro.heuristics.base import available_methods, method_info
from repro.platform import (
    BackboneLink,
    CapacityLedger,
    Cluster,
    Platform,
    PlatformSpec,
    Route,
    fully_connected_platform,
    generate_platform,
    line_platform,
    load_platform,
    platform_fingerprint,
    save_platform,
    star_platform,
)
from repro.parallel import (
    CampaignEngine,
    QuarantineError,
    RetryPolicy,
)
from repro.util.errors import (
    InfeasibleError,
    PlatformError,
    ReproError,
    RoutingError,
    ScheduleError,
    SimulationError,
    SolverError,
    UnboundedError,
    ValidationError,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # solver facade
    "Solver",
    "SolverConfig",
    "SolveReport",
    "TelemetryOptions",
    # scenario registry
    "ScenarioRegistry",
    "ScenarioInfo",
    "scenario_registry",
    "register_scenario",
    "available_scenarios",
    "scenario_info",
    "build_scenario",
    # dynamic re-scheduling
    "DynamicOptions",
    "EventTrace",
    "PlatformEvent",
    "OnlineScheduler",
    "DisruptionReport",
    # core
    "Allocation",
    "Application",
    "MAXMIN",
    "SUM",
    "SteadyStateProblem",
    "ViolationReport",
    "allocation_violations",
    "applications_for_platform",
    "available_methods",
    "method_info",
    "get_objective",
    "validate_allocation",
    # platform
    "BackboneLink",
    "CapacityLedger",
    "Cluster",
    "Platform",
    "PlatformSpec",
    "Route",
    "fully_connected_platform",
    "generate_platform",
    "line_platform",
    "load_platform",
    "platform_fingerprint",
    "save_platform",
    "star_platform",
    # parallel campaigns
    "CampaignEngine",
    "SweepAccumulator",
    "RetryPolicy",
    "QuarantineError",
    # errors
    "InfeasibleError",
    "PlatformError",
    "ReproError",
    "RoutingError",
    "ScheduleError",
    "SimulationError",
    "SolverError",
    "UnboundedError",
    "ValidationError",
]
