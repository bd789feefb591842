"""Turning float allocations into rational ones with a bounded period.

The paper's construction sets ``Tp = lcm`` of the denominators of the
``alpha_{k,l}`` written in lowest terms. Taken literally on LP output
this explodes: floats snap to fractions with essentially arbitrary
denominators whose lcm is astronomically large. Two strategies:

* :func:`rationalize_allocation` — the literal construction, with a
  per-entry denominator bound; the period is exact but can be large.
* :func:`quantize_allocation` — round every ``alpha`` *down* onto a
  common grid ``1/D``; the period is exactly ``D`` (divided by the gcd)
  and feasibility is preserved because entries only shrink. The
  throughput loss is bounded by ``K / D`` per application. This is the
  default used by :func:`repro.schedule.periodic.build_periodic_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.core.allocation import Allocation
from repro.util.errors import ScheduleError
from repro.util.rational import as_fraction, common_period

#: relative distance below a grid point that :func:`quantize_allocation`
#: treats as representation noise and snaps up (a snap lifts an entry by
#: at most this fraction of its scaled value)
_SNAP_TOL = 1e-12


@dataclass
class QuantizedAllocation:
    """A rational allocation with every entry an integer multiple of 1/period.

    Attributes
    ----------
    loads:
        Integer matrix; ``loads[k, l] = alpha[k, l] * period`` exactly.
    period:
        The schedule period ``Tp``.
    alloc:
        The rational allocation as a float :class:`Allocation` (entries
        are exactly representable: ``loads / period``).
    """

    loads: np.ndarray
    period: int
    alloc: Allocation

    @property
    def throughputs(self) -> np.ndarray:
        """Per-application throughput of the quantized allocation."""
        return self.loads.sum(axis=1) / self.period


def rationalize_allocation(
    alloc: Allocation, max_denominator: int = 100, max_period: int = 10**9
) -> QuantizedAllocation:
    """The paper's literal construction: ``Tp = lcm`` of denominators.

    Every ``alpha`` is snapped to the *nearest* fraction with denominator
    at most ``max_denominator``. Because "nearest" may round up, the
    result can overshoot capacity by up to ``1/max_denominator``; callers
    who need guaranteed feasibility should use
    :func:`quantize_allocation` instead.

    Raises
    ------
    ScheduleError
        If the resulting lcm exceeds ``max_period``.
    """
    K = alloc.n_clusters
    fractions: dict[tuple[int, int], Fraction] = {}
    for k in range(K):
        for l in range(K):
            f = as_fraction(float(alloc.alpha[k, l]), max_denominator)
            if f < 0:
                f = Fraction(0)
            if f:
                fractions[(k, l)] = f
    period = common_period(fractions)
    if period > max_period:
        raise ScheduleError(
            f"period lcm={period} exceeds max_period={max_period}; "
            "use quantize_allocation for a bounded period"
        )
    loads = np.zeros((K, K), dtype=np.int64)
    alpha = np.zeros((K, K), dtype=float)
    for (k, l), f in fractions.items():
        scaled = f * period
        loads[k, l] = int(scaled)
        alpha[k, l] = float(f)
    return QuantizedAllocation(
        loads=loads, period=period, alloc=Allocation(alpha, alloc.beta.copy())
    )


def quantize_allocation(
    alloc: Allocation, denominator: int = 10_000
) -> QuantizedAllocation:
    """Round every ``alpha`` down onto the grid ``1/denominator``.

    Feasibility is preserved (entries only decrease, betas unchanged) and
    the period divides ``denominator``. Entries within representation
    noise (:data:`_SNAP_TOL` relative) below a grid point are snapped up
    rather than floored, so that e.g. an exact rate of 1.5 does not lose
    a full grid step to roundoff; the band is that narrow so a snap
    never lifts an entry measurably above its original.
    """
    if denominator < 1:
        raise ScheduleError(f"denominator must be >= 1, got {denominator}")
    K = alloc.n_clusters
    scaled = np.asarray(alloc.alpha, dtype=float) * denominator
    snapped = np.where(
        np.abs(scaled - np.round(scaled))
        <= _SNAP_TOL * np.maximum(1.0, np.abs(scaled)),
        np.round(scaled),
        np.floor(scaled),
    ).astype(np.int64)
    snapped = np.maximum(snapped, 0)

    # Reduce the period by the gcd of all loads and the denominator.
    divisor = int(np.gcd.reduce(np.append(snapped.ravel(), denominator)))
    loads = snapped // divisor
    period = denominator // divisor

    alpha = loads.astype(float) / period
    return QuantizedAllocation(
        loads=loads, period=period, alloc=Allocation(alpha, alloc.beta.copy())
    )
