"""E-parallel — scaling of the process-pool campaign engine.

Runs one fixed-seed Figure-5-style sweep (methods x objectives over a
stratified K grid) serially and with 2 and 4 workers, then reports the
speedups. Two claims are enforced:

* **determinism** — the parallel row lists are *bitwise* equal to the
  serial one (values, lp bounds, ordering; runtimes excluded), on any
  machine, always;
* **scaling** — with >= 4 usable cores, 4 workers must beat serial by
  more than 1.5x. On boxes with fewer cores (CI containers are often
  pinned to 1) real speedup is physically impossible, so there the
  check degrades to an overhead bound: parallel dispatch must not cost
  more than 2.5x serial wall-clock.
"""

from __future__ import annotations

import os
import time

from repro import Solver, SolverConfig
from repro.experiments import sample_settings
from repro.experiments.config import PAPER_GRID

from benchmarks.conftest import banner, full_scale


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sweep_args():
    if full_scale():
        k_values, n_settings, n_platforms = [5, 15, 25, 35], 12, 3
    else:
        k_values, n_settings, n_platforms = [5, 10, 15, 20], 8, 2
    settings = sample_settings(n_settings, rng=77, k_values=k_values)
    return settings, dict(
        methods=("greedy", "lpr", "lprg"),
        objectives=("maxmin", "sum"),
        n_platforms=n_platforms,
        rng=77,
    )


def _row_key(rows):
    return [
        (r.setting, r.replicate, r.objective, r.method, r.value, r.lp_value)
        for r in rows
    ]


def test_parallel_scaling(benchmark):
    settings, kwargs = _sweep_args()

    def timed(jobs: int):
        start = time.perf_counter()
        rows = Solver(SolverConfig(jobs=jobs)).sweep(settings, **kwargs)
        return rows, time.perf_counter() - start

    # Warm imports/caches once so the serial reference is not penalised.
    Solver().sweep(settings[:1], **{**kwargs, "n_platforms": 1})

    serial_rows, t_serial = benchmark.pedantic(
        timed, args=(1,), rounds=1, iterations=1
    )
    rows_2, t2 = timed(2)
    rows_4, t4 = timed(4)

    cpus = _usable_cpus()
    banner(
        "E-parallel - campaign-engine scaling on a Fig. 5-style sweep",
        "identical rows at any jobs; >1.5x speedup at 4 workers "
        "given >= 4 cores",
    )
    n_tasks = len(settings) * kwargs["n_platforms"]
    print(f"sweep: {n_tasks} tasks, {len(serial_rows)} rows, {cpus} usable CPUs")
    print(f"  jobs=1: {t_serial:8.2f}s")
    print(f"  jobs=2: {t2:8.2f}s   speedup {t_serial / t2:5.2f}x")
    print(f"  jobs=4: {t4:8.2f}s   speedup {t_serial / t4:5.2f}x")

    # Determinism: bitwise-identical rows regardless of worker count.
    assert _row_key(rows_2) == _row_key(serial_rows)
    assert _row_key(rows_4) == _row_key(serial_rows)

    if cpus >= 4:
        assert t_serial / t4 > 1.5, (
            f"4 workers on {cpus} CPUs only gave {t_serial / t4:.2f}x"
        )
        assert t_serial / t2 > 1.2
    else:
        # Can't scale without cores: bound the dispatch overhead instead.
        assert t4 < 2.5 * t_serial + 1.0
