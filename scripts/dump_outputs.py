"""Dump the reproduction's default outputs as canonical JSON, or compare
two dumps.

A change that claims to keep results (bitwise, or within a tolerance)
is checked by dumping on both checkouts and comparing::

    PYTHONPATH=src python scripts/dump_outputs.py --out new.json
    (in the other checkout) PYTHONPATH=src python scripts/dump_outputs.py --out old.json
    python scripts/dump_outputs.py --compare old.json new.json

The dump holds, keyed by a readable path:

* every registered method on ``das2`` and ``table1-small``, three
  scenario seeds each, and the non-exact methods (all but ``milp``) on
  ``table1-medium``;
* a ``reuse/`` twin of every ``das2`` and ``table1-small`` solve: the
  same ``Solver``, right after the ``solve/`` record, solves an
  equal-but-distinct copy of the problem (its platform round-tripped
  through ``platform_to_dict``/``platform_from_dict``) through
  ``Solver.solve_many([copy], seeds=[seed])``, so the cross-call state the
  first solve left behind (LP templates, memoized HiGHS optima) is
  read. ``--out`` exits 1 when a twin differs from its ``solve/``
  record;
* LPRR with ``warm_start=False`` and with ``lp_backend="scipy"``, and
  iterated LPRG on scipy;
* the tables of a streamed K=4/6 sweep, without ``runtime_mean_by_k``
  (wall clock);
* a ``figures/`` leg: every series and note of ``figure5`` (K=4, 6) and
  ``figure6`` (K=4), one setting per K, one platform, ``rng=0``, each
  in memory and streamed; of ``figure7`` (K=4, 6) only the series
  labels and K values, because its values are wall-clock times;
* a Figure 7 leg: LPRR and LPRR-eq on two K=8 and two K=12 platforms
  drawn the way Figure 7 draws them (Table 1 grid points with
  connectivity 0.6-0.8);
* ``run_online(...).state_dict()`` for the ``drift-heavy``,
  ``failure-storm`` and ``churn`` event families.

Each solve records its value, allocation (the LP point for ``lp`` and
``milp``), LP solve count, LP session statistics and LP backend. Floats are
written with ``repr`` and read back exactly. ``--compare A B`` prints how
many leaves of both dumps are bitwise-identical and the largest
relative change of a float value, then a count and a list of each kind
of difference:

* changed: the leaf is in both dumps, with different bytes. Work counts
  under an ``lp_stats`` key (pivots, warm/cold solve counts) say how an
  answer was reached, not what it is, so they are listed apart and not
  counted;
* removed: the leaf is in ``A`` only;
* added: the leaf is in ``B`` only (a new dump leg).

It exits 1 when an output leaf changed or was removed; added leaves
alone exit 0. The summary lines start in the first column and the
listed leaves are indented, so ``grep -v '^ '`` keeps the summary.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

SEEDS = (0, 1, 2)
#: scenarios whose solves get a ``reuse/`` twin
REUSE_SCENARIOS = ("das2", "table1-small")
EXACT_METHODS = ("milp",)
ONLINE_FAMILIES = ("drift-heavy", "failure-storm", "churn")
#: Figure 7's grid: Table 1 with connectivity 0.6-0.8, two platforms per K
FIG7_K = (8, 12, 8, 12)
FIG7_CONNECTIVITY = (0.6, 0.7, 0.8)
FIG7_METHODS = ("lprr", "lprr-eq")
#: (method, config overrides) of the non-default LP paths
VARIANTS = (
    ("lprr", {"warm_start": False}),
    ("lprr", {"lp_backend": "scipy"}),
    ("lprg-it", {"lp_backend": "scipy"}),
)
#: the figure generators' scale: one setting per K, one platform
FIGURE_SCALE = dict(settings_per_k=1, platforms_per_setting=1, rng=0)


def _plain(value):
    """JSON-ready copy: arrays to lists, numpy scalars to Python."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _solve_record(report, config) -> dict:
    meta = report.meta
    allocation = report.allocation
    solution = meta.get("solution")  # the LP bound's point
    return _plain({
        "value": report.value,
        "alpha": None if allocation is None else allocation.alpha,
        "beta": None if allocation is None else allocation.beta,
        "x": None if solution is None else solution.x,
        "n_lp_solves": report.n_lp_solves,
        "lp_stats": meta.get("lp_stats"),
        "lp_backend": meta.get("lp_backend", config.lp_backend),
    })


def _equal_copy(problem):
    """An equal-but-distinct copy of ``problem``: a new platform object
    built from the original's serialized form."""
    from repro import SteadyStateProblem
    from repro.platform import platform_from_dict, platform_to_dict

    return SteadyStateProblem(
        platform_from_dict(platform_to_dict(problem.platform)),
        problem.applications,
        problem.objective,
    )


def _fig7_problems():
    """``(tag, problem)`` for the Figure 7 leg's platforms."""
    from repro import SteadyStateProblem, generate_platform
    from repro.experiments.config import (
        DEFAULT_SCENARIO,
        PAPER_GRID,
        payoffs_for,
        sample_settings,
        spec_for,
    )

    grid = dict(PAPER_GRID, connectivity=FIG7_CONNECTIVITY)
    settings = sample_settings(
        len(FIG7_K), rng=np.random.default_rng(2005), k_values=FIG7_K, grid=grid
    )
    for i, setting in enumerate(settings):
        rng = np.random.default_rng(i)
        platform = generate_platform(spec_for(setting), rng=rng)
        payoffs = payoffs_for(setting, DEFAULT_SCENARIO, rng)
        yield f"k{setting.k}-{i}", SteadyStateProblem(platform, payoffs)


def _figures() -> dict:
    """The ``figures/`` leg, in memory and streamed."""
    from repro import Solver, SolverConfig
    from repro.experiments import figure5, figure6, figure7

    out: dict = {}
    for stream in (False, True):
        mode = "stream" if stream else "memory"
        for name, generator, k_values in (
            ("figure5", figure5, (4, 6)),
            ("figure6", figure6, (4,)),
        ):
            fig = generator(
                k_values=k_values,
                solver=Solver(SolverConfig(stream=stream)),
                **FIGURE_SCALE,
            )
            out[f"figures/{name}/{mode}"] = _plain(
                {"series": fig.series, "notes": fig.notes}
            )
        fig = figure7(
            k_values=(4, 6), solver=Solver(SolverConfig(stream=stream)), **FIGURE_SCALE
        )
        out[f"figures/figure7/{mode}"] = {
            label: [k for k, _ in points] for label, points in fig.series.items()
        }
    return out


def dump() -> dict:
    import repro
    from repro import Solver, SolverConfig, build_scenario
    from repro.experiments.config import sample_settings

    out: dict = {}
    methods = repro.available_methods()
    for scenario, names in (
        ("das2", methods),
        ("table1-small", methods),
        ("table1-medium", [m for m in methods if m not in EXACT_METHODS]),
    ):
        for seed in SEEDS:
            problem = build_scenario(scenario, rng=np.random.default_rng(seed))
            for method in names:
                config = SolverConfig(method=method, seed=seed)
                solver = Solver(config)
                report = solver.solve(problem)
                out[f"solve/{scenario}/{seed}/{method}"] = _solve_record(report, config)
                if scenario in REUSE_SCENARIOS:
                    [again] = solver.solve_many([_equal_copy(problem)], seeds=[seed])
                    out[f"reuse/{scenario}/{seed}/{method}"] = _solve_record(
                        again, config
                    )
            for method, overrides in VARIANTS:
                config = SolverConfig(method=method, seed=seed, **overrides)
                report = Solver(config).solve(problem)
                tag = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
                out[f"variant/{scenario}/{seed}/{method}/{tag}"] = _solve_record(
                    report, config
                )

    settings = sample_settings(4, rng=np.random.default_rng(2005), k_values=[4, 6])
    tables = Solver(SolverConfig(stream=True)).sweep(
        settings, n_platforms=2, rng=7
    ).tables()
    tables.pop("runtime_mean_by_k", None)
    out["sweep/k4-6"] = _plain(tables)
    out.update(_figures())

    for tag, problem in _fig7_problems():
        for method in FIG7_METHODS:
            config = SolverConfig(method=method, seed=7)
            report = Solver(config).solve(problem)
            out[f"fig7/{tag}/{method}"] = _solve_record(report, config)

    for family in ONLINE_FAMILIES:
        report = Solver(SolverConfig(seed=11)).run_online("table1-small", family)
        out[f"online/{family}"] = _plain(report.state_dict())
    return out


def reuse_mismatches(out: dict) -> list:
    """Keys of the ``reuse/`` records that differ from their ``solve/``
    twin (compared as canonical JSON, so floats bitwise)."""
    return [
        key
        for key, record in sorted(out.items())
        if key.startswith("reuse/")
        and json.dumps(record, sort_keys=True)
        != json.dumps(out["solve/" + key[len("reuse/"):]], sort_keys=True)
    ]


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_work_count(path: str) -> bool:
    """Leaves under an ``lp_stats`` key count solver work, not output."""
    return "/lp_stats/" in path


def compare(a: dict, b: dict) -> int:
    """Print the diff summary; returns the number of changed output
    leaves plus removed leaves (changed ``lp_stats`` work counts and
    added leaves are listed, not counted)."""
    left, right = dict(_leaves(a)), dict(_leaves(b))
    identical = worst = 0
    worst_at = None
    outputs: list = []
    work: list = []
    shared = set(left) & set(right)
    for path in sorted(shared):
        x, y = left[path], right[path]
        if type(x) is type(y) and json.dumps(x) == json.dumps(y):
            identical += 1
            continue
        (work if _is_work_count(path) else outputs).append((path, x, y))
        if isinstance(x, float) and isinstance(y, (int, float)):
            rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
            if math.isfinite(rel) and rel > worst:
                worst, worst_at = rel, path
    removed = sorted(set(left) - set(right))
    added = sorted(set(right) - set(left))
    print(f"{identical} of {len(shared)} shared values bitwise-identical")
    print(f"largest relative float change: {worst:.3g}"
          + (f" at {worst_at}" if worst_at else ""))
    for label, changed in (("output", outputs), ("lp_stats work-count", work)):
        print(f"{len(changed)} {label} values changed")
        for path, x, y in changed:
            print(f"  {path}: {x!r} -> {y!r}")
    for label, paths, dump in (("removed", removed, left),
                               ("added", added, right)):
        print(f"{len(paths)} values {label}")
        for path in paths:
            print(f"  {path}: {dump[path]!r}")
    return len(outputs) + len(removed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write a dump here")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                      help="compare two dumps")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 1 if compare(a, b) else 0
    out = dump()
    args.out.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    mismatches = reuse_mismatches(out)
    for key in mismatches:
        print(f"{key} differs from its solve/ twin")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
