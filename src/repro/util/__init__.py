"""Shared utility substrate: errors, RNG handling, rationals, timing, text output.

These modules are deliberately dependency-light; everything else in
:mod:`repro` builds on top of them.
"""

from repro.util.errors import (
    ReproError,
    PlatformError,
    RoutingError,
    SolverError,
    InfeasibleError,
    UnboundedError,
    ValidationError,
    ScheduleError,
    SimulationError,
)
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.rational import (
    as_fraction,
    lcm_many,
    common_period,
    fractionize,
)
from repro.obs.timing import Timer, timed
from repro.util.tables import TextTable
from repro.util.ascii_plot import ascii_series_plot

__all__ = [
    "ReproError",
    "PlatformError",
    "RoutingError",
    "SolverError",
    "InfeasibleError",
    "UnboundedError",
    "ValidationError",
    "ScheduleError",
    "SimulationError",
    "ensure_rng",
    "spawn_rngs",
    "as_fraction",
    "lcm_many",
    "common_period",
    "fractionize",
    "Timer",
    "timed",
    "TextTable",
    "ascii_series_plot",
]
