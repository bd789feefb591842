"""The Table-1 parameter grid and experiment scenario configuration.

Table 1 of the paper:

========================  =======================================
parameter                 values
========================  =======================================
K                         5, 15, ..., 95
connectivity              0.1, 0.2, ..., 0.8
heterogeneity             0.2, 0.4, 0.6, 0.8
mean g                    50, 250, 350, 450
mean bw                   10, 20, ..., 90
mean maxcon               5, 15, ..., 95
========================  =======================================

with 10 random platforms per setting (the paper reports 269,835 platform
configurations in total). The full factorial grid is defined here
exactly; benchmark-scale runs draw a stratified subsample.

The :class:`Scenario` records the symmetry-breaking choices discussed in
DESIGN.md / EXPERIMENTS.md (interpretation note 7): under the paper's
literal setup (all speeds exactly 100, equal payoffs) every heuristic is
trivially optimal, contradicting Figure 5, so the calibrated default
applies the platform heterogeneity to cluster speeds and draws payoffs
from a narrow uniform band.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.platform.generator import PlatformSpec
from repro.util.rng import ensure_rng

#: Table 1 of the paper, verbatim.
PAPER_GRID: dict[str, tuple[float, ...]] = {
    "K": tuple(range(5, 96, 10)),
    "connectivity": tuple(round(0.1 * i, 1) for i in range(1, 9)),
    "heterogeneity": (0.2, 0.4, 0.6, 0.8),
    "mean_g": (50.0, 250.0, 350.0, 450.0),
    "mean_bw": tuple(float(b) for b in range(10, 91, 10)),
    "mean_maxcon": tuple(float(m) for m in range(5, 96, 10)),
}


@dataclass(frozen=True, slots=True)
class Setting:
    """One point of the parameter grid (one platform configuration)."""

    k: int
    connectivity: float
    heterogeneity: float
    mean_g: float
    mean_bw: float
    mean_maxcon: float

    def as_dict(self) -> dict:
        return {
            "K": self.k,
            "connectivity": self.connectivity,
            "heterogeneity": self.heterogeneity,
            "mean_g": self.mean_g,
            "mean_bw": self.mean_bw,
            "mean_maxcon": self.mean_maxcon,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Setting":
        """Inverse of :meth:`as_dict` (``k`` is accepted for ``K``).

        A missing field raises ``KeyError``, a field that is not a
        number ``ValueError`` naming it, and a ``data`` that is not a
        dict ``TypeError``.
        """
        if not isinstance(data, dict):
            raise TypeError(f"a setting must be a dict, got {data!r}")
        return cls(
            k=_number(data, "K" if "K" in data else "k", int),
            connectivity=_number(data, "connectivity", float),
            heterogeneity=_number(data, "heterogeneity", float),
            mean_g=_number(data, "mean_g", float),
            mean_bw=_number(data, "mean_bw", float),
            mean_maxcon=_number(data, "mean_maxcon", float),
        )


@dataclass(frozen=True, slots=True)
class Scenario:
    """Symmetry-breaking and scale choices for a sweep.

    Attributes
    ----------
    speed:
        Nominal cluster speed (the paper's 100).
    apply_speed_heterogeneity:
        Re-use the platform ``heterogeneity`` for cluster speeds.
    payoff_low, payoff_high:
        Payoffs are drawn uniformly from this band (equal payoffs when
        the band is degenerate).
    platforms_per_setting:
        Random platforms per grid point (the paper used 10).
    """

    speed: float = 100.0
    apply_speed_heterogeneity: bool = True
    payoff_low: float = 0.8
    payoff_high: float = 1.2
    platforms_per_setting: int = 10

    def payoffs(self, k: int, rng) -> np.ndarray:
        """Draw one payoff vector for ``k`` applications."""
        rng = ensure_rng(rng)
        if self.payoff_high == self.payoff_low:
            return np.full(k, self.payoff_low)
        return rng.uniform(self.payoff_low, self.payoff_high, size=k)

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in _SCENARIO_CASTS}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`as_dict`: a missing key takes its default,
        an unknown key raises ``ValueError``, and so does a value the
        key's type cannot hold."""
        unknown = sorted(set(data) - set(_SCENARIO_CASTS))
        if unknown:
            raise ValueError(f"unknown scenario key(s) {unknown}")
        return cls(**{key: _number(data, key, _SCENARIO_CASTS[key]) for key in data})


#: the :class:`Scenario` dict format: key -> type, in field order
_SCENARIO_CASTS = {
    "speed": float,
    "apply_speed_heterogeneity": bool,
    "payoff_low": float,
    "payoff_high": float,
    "platforms_per_setting": int,
}


def _number(data: dict, key: str, cast):
    """``cast(data[key])``; a value it cannot convert raises a
    ``ValueError`` naming ``key``."""
    value = data[key]
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key!r} must be a number, got {value!r}") from None


#: the calibrated default scenario (see EXPERIMENTS.md)
DEFAULT_SCENARIO = Scenario()

#: the paper-literal scenario, kept for the triviality demonstration
LITERAL_SCENARIO = Scenario(
    apply_speed_heterogeneity=False, payoff_low=1.0, payoff_high=1.0
)


def iter_grid(grid: "dict[str, Sequence[float]] | None" = None) -> Iterator[Setting]:
    """Iterate the full factorial grid (115,200 settings for Table 1)."""
    g = PAPER_GRID if grid is None else grid
    for k, conn, het, mg, mbw, mmc in itertools.product(
        g["K"], g["connectivity"], g["heterogeneity"], g["mean_g"], g["mean_bw"], g["mean_maxcon"]
    ):
        yield Setting(int(k), float(conn), float(het), float(mg), float(mbw), float(mmc))


def grid_size(grid: "dict[str, Sequence[float]] | None" = None) -> int:
    """Number of settings in the factorial grid."""
    g = PAPER_GRID if grid is None else grid
    out = 1
    for values in g.values():
        out *= len(values)
    return out


def sample_settings(
    n: int,
    rng=None,
    k_values: "Sequence[int] | None" = None,
    grid: "dict[str, Sequence[float]] | None" = None,
) -> list[Setting]:
    """Stratified subsample of the grid: K values round-robin, the other
    parameters drawn independently and uniformly from their Table-1 lists.

    Sampling parameters independently (rather than enumerating and
    subsampling the cross product) keeps marginal distributions exact at
    any sample size.
    """
    rng = ensure_rng(rng)
    g = PAPER_GRID if grid is None else grid
    ks = list(k_values) if k_values is not None else list(g["K"])
    out = []
    for i in range(n):
        out.append(
            Setting(
                k=int(ks[i % len(ks)]),
                connectivity=float(rng.choice(g["connectivity"])),
                heterogeneity=float(rng.choice(g["heterogeneity"])),
                mean_g=float(rng.choice(g["mean_g"])),
                mean_bw=float(rng.choice(g["mean_bw"])),
                mean_maxcon=float(rng.choice(g["mean_maxcon"])),
            )
        )
    return out


def spec_for(setting: Setting, scenario: Scenario = DEFAULT_SCENARIO) -> PlatformSpec:
    """Translate a grid point + scenario into a generator spec."""
    return PlatformSpec(
        n_clusters=setting.k,
        connectivity=setting.connectivity,
        heterogeneity=setting.heterogeneity,
        mean_g=setting.mean_g,
        mean_bw=setting.mean_bw,
        mean_max_connect=setting.mean_maxcon,
        speed=scenario.speed,
        speed_heterogeneity=(
            setting.heterogeneity if scenario.apply_speed_heterogeneity else 0.0
        ),
    )


def payoffs_for(setting: Setting, scenario: Scenario, rng) -> np.ndarray:
    """Payoff vector for one platform drawn under ``scenario``."""
    return scenario.payoffs(setting.k, rng)
