"""Heuristic interface, result record, and registry.

Every algorithm — the four heuristics of Section 5, the LP upper bound
and the exact solvers — implements :class:`Heuristic` and registers
itself by name, so the experiment harness can sweep over algorithms
uniformly and :class:`repro.api.Solver` can dispatch by string.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.util.errors import SolverError
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocation import Allocation
    from repro.core.problem import SteadyStateProblem


@dataclass(frozen=True)
class MethodInfo:
    """Metadata describing one registered algorithm.

    The typed counterpart of :func:`available_methods`:
    what the method is, which run options it accepts, whether it solves
    LPs, and whether its result depends on the ``rng`` argument.
    """

    name: str
    aliases: tuple[str, ...]
    description: str
    options: tuple[str, ...]
    uses_lp: bool
    deterministic: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "description": self.description,
            "options": list(self.options),
            "uses_lp": self.uses_lp,
            "deterministic": self.deterministic,
        }


@dataclass
class HeuristicResult:
    """Outcome of running one algorithm on one problem.

    Attributes
    ----------
    method:
        Registered algorithm name.
    objective:
        Objective name the problem was solved under.
    value:
        Objective value achieved. For ``lp`` this is an *upper bound*
        (the relaxation is generally not realizable), for everything
        else it is the value of ``allocation``.
    allocation:
        The valid integer-beta allocation, or ``None`` for the pure
        relaxation bound.
    runtime:
        Wall-clock seconds spent inside the algorithm.
    n_lp_solves:
        Number of LP relaxations solved (0 for the greedy).
    meta:
        Algorithm-specific extras (e.g. the raw LP solution).
    """

    method: str
    objective: str
    value: float
    allocation: "Allocation | None"
    runtime: float
    n_lp_solves: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def is_schedule(self) -> bool:
        """True when the result is realizable (has an allocation)."""
        return self.allocation is not None

    def __repr__(self) -> str:
        return (
            f"HeuristicResult({self.method}, {self.objective}, "
            f"value={self.value:.6g}, runtime={self.runtime:.4g}s)"
        )


#: values of the ``lp_backend`` option of the LP re-solving methods:
#: a warm-started :class:`~repro.lp.session.LPSession`, or a fresh HiGHS
#: solve per LP (the reference path)
LP_BACKENDS = ("session", "scipy")

#: option names that no longer exist, mapped to why they went — so a
#: stale caller is told what happened instead of being offered the
#: nearest surviving name
REMOVED_OPTIONS = {
    "lp_engine": "the revised simplex is the only LP engine",
    "share_bases": "cross-session basis sharing was deleted",
}


def check_lp_backend(value) -> None:
    """Raise :class:`SolverError` unless ``value`` is in :data:`LP_BACKENDS`."""
    if value not in LP_BACKENDS:
        raise SolverError(
            f"lp_backend must be one of {LP_BACKENDS}, got {value!r}"
        )


class Heuristic:
    """Base class: subclasses implement :meth:`_solve` and set ``name``."""

    #: registry key; subclasses must override
    name: str = "abstract"
    #: additional lookup aliases
    aliases: tuple[str, ...] = ()
    #: one-line human description (surfaced by ``method_info()``)
    description: str = ""
    #: keyword options :meth:`run` accepts besides ``rng``; anything
    #: else passed through the public API is rejected with a suggestion
    option_names: tuple[str, ...] = ()
    #: does the algorithm solve LP relaxations?
    uses_lp: bool = False
    #: is the result independent of the ``rng`` argument?
    deterministic: bool = True

    def info(self) -> MethodInfo:
        """This algorithm's :class:`MethodInfo` record."""
        return MethodInfo(
            name=self.name,
            aliases=tuple(self.aliases),
            description=self.description,
            options=tuple(sorted(self.option_names)),
            uses_lp=self.uses_lp,
            deterministic=self.deterministic,
        )

    def run(
        self,
        problem: "SteadyStateProblem",
        rng: "int | np.random.Generator | None" = None,
        **kwargs,
    ) -> HeuristicResult:
        """Solve ``problem``, timing the algorithm body.

        Options outside :attr:`option_names` raise :class:`SolverError`
        naming the nearest valid one, as does an unknown ``lp_backend``.
        """
        for key in kwargs:
            if key not in self.option_names:
                raise unknown_option_error(key, self.name, self.option_names)
        if "lp_backend" in kwargs:
            check_lp_backend(kwargs["lp_backend"])
        rng = ensure_rng(rng)
        start = time.perf_counter()
        result = self._solve(problem, rng, **kwargs)
        result.runtime = time.perf_counter() - start
        return result

    def _solve(
        self, problem: "SteadyStateProblem", rng: np.random.Generator, **kwargs
    ) -> HeuristicResult:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, Heuristic] = {}
_ALIASES: dict[str, str] = {}


def register_heuristic(cls: "Callable[[], Heuristic]") -> "Callable[[], Heuristic]":
    """Class decorator: instantiate and register under name + aliases."""
    instance = cls()
    key = instance.name.lower()
    if key in _REGISTRY:
        raise ValueError(f"duplicate heuristic name {key!r}")
    _REGISTRY[key] = instance
    for alias in instance.aliases:
        _ALIASES[alias.lower()] = key
    return cls


def registry() -> dict[str, Heuristic]:
    """Name -> instance mapping of all registered algorithms."""
    _ensure_loaded()
    return dict(_REGISTRY)


def available_methods() -> tuple[str, ...]:
    """Canonical names of every registered algorithm, sorted."""
    return tuple(sorted(registry()))


def method_info() -> dict[str, MethodInfo]:
    """Per-method metadata, keyed by canonical name.

    The typed extension of :func:`available_methods`: each entry records
    the method's description, aliases, supported options, whether it
    solves LPs, and whether its result depends on ``rng``. Sourced from
    the registry, so third-party registrations show up too.

    >>> info = method_info()
    >>> info["lprr"].uses_lp and not info["lprr"].deterministic
    True
    >>> "selection" in info["greedy"].options
    True
    """
    return {
        name: heuristic.info() for name, heuristic in sorted(registry().items())
    }


def get_heuristic(name: str) -> Heuristic:
    """Look an algorithm up by name or alias (case-insensitive)."""
    _ensure_loaded()
    key = name.lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = sorted(set(_REGISTRY) | set(_ALIASES))
        raise ValueError(f"unknown method {name!r}; known: {known}") from None


def nearest_name(name: str, candidates) -> "str | None":
    """Closest match to ``name`` among ``candidates`` (None if nothing
    is plausibly close) — shared by every did-you-mean diagnostic."""
    matches = difflib.get_close_matches(name, sorted(candidates), n=1)
    return matches[0] if matches else None


def unknown_option_error(option: str, method: str, valid) -> SolverError:
    """The :class:`SolverError` for an unrecognised solver option.

    A typo like ``eager_integer_fixng=True`` must not change nothing and
    say nothing: every entry point that takes option names
    (:meth:`Heuristic.run`, :meth:`repro.api.SolverConfig.for_method`,
    :meth:`repro.api.SolverConfig.from_dict`) rejects unknown names
    through this helper, naming the nearest valid option — or, for a
    name in :data:`REMOVED_OPTIONS`, saying that it was removed and why.
    """
    if option in REMOVED_OPTIONS:
        return SolverError(
            f"option {option!r} was removed: {REMOVED_OPTIONS[option]}"
        )
    valid = sorted(valid)
    message = f"unknown option {option!r} for method {method!r}"
    suggestion = nearest_name(option, valid)
    if suggestion is not None:
        message += f"; did you mean {suggestion!r}?"
    message += f" (valid options: {valid})"
    return SolverError(message)


def _ensure_loaded() -> None:
    """Import the implementation modules so their decorators run."""
    from repro.heuristics import (  # noqa: F401
        bounds,
        greedy,
        lpr,
        lprg,
        lprg_iterated,
        lprr,
    )
