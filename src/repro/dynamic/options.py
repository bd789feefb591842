"""Facade knobs for online re-scheduling runs.

:class:`DynamicOptions` rides on ``SolverConfig(dynamic=...)`` exactly
like :class:`repro.distrib.supervise.SupervisionPolicy` rides on
``SolverConfig(supervision=...)``: a frozen, validated, dict-round-
trippable record — no ``**kwargs`` funnels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import SolverError


@dataclass(frozen=True)
class DynamicOptions:
    """Knobs of one :class:`repro.dynamic.online.OnlineScheduler` run.

    Parameters
    ----------
    replay:
        After each re-solve, round the LP point down to a valid
        allocation, build the periodic schedule and replay it through
        the flow simulator (the throughput-deficit column of the
        :class:`~repro.dynamic.online.DisruptionReport`). Turning it
        off keeps only the LP-level metrics — much faster on large
        traces.
    sim_periods:
        Periods the flow simulator replays per event (>= 2; achieved
        throughput is measured over ``sim_periods - 1`` warmed-up
        periods).
    denominator:
        Rational-period denominator for
        :func:`repro.schedule.periodic.build_periodic_schedule`.
    check_oracle:
        Solve the from-scratch oracle (cold, same mutated instance)
        after every incremental re-solve and record the bitwise
        comparison. It costs the oracle's solve and token read per
        event and changes no result: the oracle only observes, so every
        solution and state dict is the same with it on or off. The
        benchmark gate requires it; production runs switch it off.
    """

    replay: bool = True
    sim_periods: int = 4
    denominator: int = 10_000
    check_oracle: bool = True

    def __post_init__(self):
        if not isinstance(self.replay, bool):
            raise SolverError(f"replay must be a bool, got {self.replay!r}")
        if not isinstance(self.check_oracle, bool):
            raise SolverError(
                f"check_oracle must be a bool, got {self.check_oracle!r}"
            )
        if not isinstance(self.sim_periods, int) or self.sim_periods < 2:
            raise SolverError(
                f"sim_periods must be an int >= 2, got {self.sim_periods!r}"
            )
        if not isinstance(self.denominator, int) or self.denominator < 1:
            raise SolverError(
                f"denominator must be an int >= 1, got {self.denominator!r}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "replay": self.replay,
            "sim_periods": self.sim_periods,
            "denominator": self.denominator,
            "check_oracle": self.check_oracle,
        }

    _FIELDS = ("replay", "sim_periods", "denominator", "check_oracle")

    @classmethod
    def from_dict(cls, data: dict) -> "DynamicOptions":
        if not isinstance(data, dict):
            raise SolverError(
                f"dynamic options must be an object, got {data!r}"
            )
        unknown = sorted(set(data) - set(cls._FIELDS))
        if unknown:
            raise SolverError(
                f"unknown dynamic option(s): {', '.join(unknown)}"
            )
        return cls(**data)
