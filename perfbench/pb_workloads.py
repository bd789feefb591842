"""One workload in one fresh process: set up, time, check, report.

Run by ``run.py`` (never by hand in normal use)::

    python3 perfbench/pb_workloads.py --workload fig7-sweep --seed 1 \\
        --seconds 20 [--trace] [--setup-only]

The last stdout line is a JSON record for the harness. The program under
test is reached only through its public entry points; the work a run
does is fixed by ``--workload``, ``--seed`` and ``--seconds`` (the op
count is ``--seconds`` times a nominal rate), never by how fast the
program happens to be, so two commits always time the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

import numpy as np
import scipy
import scipy.linalg
import scipy.optimize
import scipy.sparse

# setup_s starts here: the interpreter, numpy and scipy are loaded
SETUP_START = time.perf_counter()

import pb_checks  # noqa: E402  (the script's own directory is on sys.path)
import pb_stats  # noqa: E402
import pb_trace  # noqa: E402

METHODS = ("greedy", "lpr", "lprg", "lprr")


def _child_seeds(seed: int, n: int) -> list:
    return np.random.SeedSequence(seed).spawn(n)


class Fig7Sweep:
    """The paper's Figure 7 the way ``figure7`` runs it: a streamed,
    serial ``Solver.sweep`` of G/LPR/LPRG/LPRR under MAXMIN over grid
    points drawn per K with ``sample_settings``; one op is one sweep task
    (one platform).

    The grid points are one fixed draw over Table 1 with connectivity
    0.6-0.8; the seed draws the platforms. Task times span 100x across
    grid points, mostly with connectivity (it sets the length of LPRR's
    LP chain, which this workload exists to time), so a seed-drawn grid
    would make the run-to-run spread a property of the draw. The counts
    per K put the median and the p75 tail well inside the K=12 tasks,
    not on the gap between two K classes.
    """

    name = "fig7-sweep"
    tracer = None
    #: (K, grid points) per replicate block: ~24 s of single-core work
    K_MIX = ((8, 14), (12, 30), (16, 1), (20, 1))
    CONNECTIVITY = (0.6, 0.7, 0.8)
    SETTINGS_SEED = 2005
    SECONDS_PER_REPLICATE = 24.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.replicates = max(1, round(seconds / self.SECONDS_PER_REPLICATE))
        self.attempted = self.replicates * sum(n for _, n in self.K_MIX)

    def setup(self) -> None:
        from repro import Solver, SolverConfig
        from repro.experiments.config import PAPER_GRID, sample_settings

        grid = dict(PAPER_GRID, connectivity=self.CONNECTIVITY)
        rng = np.random.default_rng(self.SETTINGS_SEED)
        self.settings = []
        for k, count in self.K_MIX:
            self.settings += sample_settings(count, rng=rng, k_values=[k], grid=grid)
        warm_settings = sample_settings(2, rng=rng, k_values=[8, 12], grid=grid)
        self.timed_seed, warm_seed = _child_seeds(self.seed, 2)
        self.solver = Solver(SolverConfig(jobs=1, stream=True))
        self.solver.sweep(
            warm_settings, methods=METHODS, objectives=("maxmin",),
            n_platforms=1, rng=warm_seed,
        )

    def run(self) -> "tuple[list[float], float]":
        self.task_rows: list = []
        marks = [time.perf_counter()]

        def progress(done: int, total: int) -> None:
            marks.append(time.perf_counter())

        self.accumulator = self.solver.sweep(
            self.settings, methods=METHODS, objectives=("maxmin",),
            n_platforms=self.replicates, rng=self.timed_seed,
            progress=progress, on_rows=self.task_rows.append,
        )
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        return latencies, marks[-1] - marks[0]

    def check(self) -> "tuple[int, list[str]]":
        from repro.parallel.stream import SweepAccumulator

        failed, problems = 0, []
        for i, rows in enumerate(self.task_rows):
            found = pb_checks.check_sweep_task(rows)
            if found:
                failed += 1
                problems += [f"task {i}: {p}" for p in found]
        reference = SweepAccumulator.from_rows(
            [row for rows in self.task_rows for row in rows],
            methods=METHODS, objectives=("maxmin",),
        )
        found = pb_checks.check_sweep_tables(
            self.accumulator.tables(), reference.tables()
        )
        if found:
            failed += 1
            problems += found
        return failed, problems


class ServiceSolve:
    """A closed loop of two clients, each waiting for its reply, driving
    ``POST /solve`` (LPRG on ``table1-small``) through the socketless
    ASGI client; one op is one request, timed from send to response.

    Request ``i`` targets platform ``i % N_SCENARIO_SEEDS``; the count is
    even, so the two clients never hit one pool key at once. With 8
    platforms one expensive draw moved the median 15% between seeds; 24
    average that out and still fit the service's 32 warm solver slots.
    """

    name = "service-solve"
    tracer = None
    SCENARIO = "table1-small"
    N_SCENARIO_SEEDS = 24
    CLIENTS = 2
    REQUESTS_PER_SECOND = 90.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.n_requests = max(self.CLIENTS, round(seconds * self.REQUESTS_PER_SECOND))
        self.attempted = self.n_requests

    def setup(self) -> None:
        from repro.service import create_app
        from repro.service.testing import AsgiTestClient

        rng = np.random.default_rng(self.seed)
        self.scenario_seeds = [
            int(s) for s in rng.choice(2**31, self.N_SCENARIO_SEEDS, replace=False)
        ]
        # distinct solve seeds: a seed names its request in traced runs
        seeds = rng.choice(2**40, self.n_requests + self.N_SCENARIO_SEEDS, replace=False)
        self.requests = [
            self._payload(self.scenario_seeds[i % self.N_SCENARIO_SEEDS], seeds[i])
            for i in range(self.n_requests)
        ]
        self.app = create_app()
        self.clients = [AsgiTestClient(self.app) for _ in range(self.CLIENTS)]
        # warm the pool and template cache: one solve per platform
        for platform, seed in zip(self.scenario_seeds, seeds[self.n_requests:]):
            response = self.clients[0].post("/solve", self._payload(platform, seed))
            if response.status != 200:
                raise RuntimeError(f"warm-up request failed: {response.body[:200]!r}")

    def _payload(self, scenario_seed: int, seed) -> dict:
        return {
            "scenario": self.SCENARIO,
            "config": {"method": "lprg"},
            "scenario_seed": scenario_seed,
            "seed": int(seed),
        }

    def run(self) -> "tuple[list[float], float]":
        tracer = self.tracer
        if tracer is not None:
            tracer.rid_by_seed.update(
                (req["seed"], i) for i, req in enumerate(self.requests)
            )
        self.pool_before = self.app.service.pool.stats()
        self.responses: list = [None] * self.n_requests
        latencies = [0.0] * self.n_requests
        barrier = threading.Barrier(self.CLIENTS + 1)
        errors: list = []

        def client_loop(c: int) -> None:
            client = self.clients[c]
            barrier.wait()
            for i in range(c, self.n_requests, self.CLIENTS):
                t0 = time.perf_counter()
                try:
                    if tracer is not None:
                        span = tracer.open("service.request", rid=i, root=True)
                        try:
                            response = client.post("/solve", self.requests[i])
                        finally:
                            tracer.close(span)
                    else:
                        response = client.post("/solve", self.requests[i])
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    errors.append(f"request {i}: {exc!r}")
                    continue
                latencies[i] = time.perf_counter() - t0
                self.responses[i] = (response.status, response.body)

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
            for c in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        wall = time.perf_counter() - start
        self.pool_after = self.app.service.pool.stats()
        self.client_errors = errors
        return [lat for lat, r in zip(latencies, self.responses) if r is not None], wall

    def layer_inputs(self) -> dict:
        hits = self.pool_after["pool_hits"] - self.pool_before["pool_hits"]
        misses = self.pool_after["pool_misses"] - self.pool_before["pool_misses"]
        return {"pool_hits": hits, "pool_lookups": hits + misses}

    def check(self) -> "tuple[int, list[str]]":
        from repro import Solver, SolverConfig, build_scenario

        references = {}
        for scenario_seed in self.scenario_seeds:
            references[scenario_seed] = (
                Solver(SolverConfig(method="lprg")),
                build_scenario(self.SCENARIO, rng=np.random.default_rng(scenario_seed)),
            )
        failed, problems = len(self.client_errors), list(self.client_errors)
        for i, (request, response) in enumerate(zip(self.requests, self.responses)):
            if response is None:
                continue
            solver, problem = references[request["scenario_seed"]]
            reference = solver.solve(problem, rng=request["seed"]).to_dict()
            found = pb_checks.check_solve_response(response[0], response[1], reference)
            if found:
                failed += 1
                problems += [f"request {i}: {p}" for p in found]
        return failed, problems


class OnlineDrift:
    """``OnlineScheduler`` instances on one ``table1-medium`` platform
    (K=15), each stepping through its own seeded drift trace with the
    production options (no oracle, no replay); one op is one
    ``step(event)``. The schedulers take turns, one event each.

    The platform is one fixed draw of the family and the seed draws the
    traces. Across 16 drawn platforms the median step cost varied with a
    coefficient of variation of 20%, and along one long trace the cost
    wanders with the drifted state (one trace moved the median 15%
    between seeds), so a run averages :data:`SCHEDULERS` short,
    independent traces on a fixed platform.
    """

    name = "online-drift"
    tracer = None
    SCENARIO = "table1-medium"
    PLATFORM_SEED = 2005
    SCHEDULERS = 8
    EVENTS_PER_SECOND = 20.0
    WARM_EVENTS = 5

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.rounds = max(1, round(seconds * self.EVENTS_PER_SECOND / self.SCHEDULERS))
        self.attempted = self.rounds * self.SCHEDULERS

    def setup(self) -> None:
        from repro import DynamicOptions, build_scenario
        from repro.dynamic.events import drift_trace
        from repro.dynamic.online import OnlineScheduler

        problem = build_scenario(
            self.SCENARIO, rng=np.random.default_rng(self.PLATFORM_SEED)
        )
        k = problem.n_clusters
        warm_seed, *trace_seeds = (
            int(seq.generate_state(1)[0] >> 1)
            for seq in _child_seeds(self.seed, self.SCHEDULERS + 1)
        )
        options = DynamicOptions(check_oracle=False, replay=False)
        warm = OnlineScheduler(problem, options=options)
        for event in drift_trace(k, n_events=self.WARM_EVENTS, seed=warm_seed):
            warm.step(event)
        self.traces = [
            list(drift_trace(k, n_events=self.rounds, seed=seed)) for seed in trace_seeds
        ]
        self.schedulers = [
            OnlineScheduler(problem, options=options) for _ in trace_seeds
        ]

    def run(self) -> "tuple[list[float], float]":
        latencies = []
        self.states = []
        for i in range(self.rounds):
            for scheduler, trace in zip(self.schedulers, self.traces):
                t0 = time.perf_counter()
                scheduler.step(trace[i])
                latencies.append(time.perf_counter() - t0)
                # untimed: what the check needs to rebuild this instance
                self.states.append(
                    (scheduler.value, scheduler.platform, scheduler.payoffs)
                )
        return latencies, sum(latencies)

    def check(self) -> "tuple[int, list[str]]":
        from repro import SteadyStateProblem
        from repro.lp.builder import build_lp
        from repro.lp.scipy_backend import solve_lp_scipy

        failed, problems = 0, []
        for i, (value, platform, payoffs) in enumerate(self.states):
            reference = solve_lp_scipy(build_lp(SteadyStateProblem(platform, payoffs)))
            found = pb_checks.check_online_value(value, reference.value)
            if found:
                failed += 1
                problems += [f"event {i}: {p}" for p in found]
        return failed, problems


WORKLOADS = {cls.name: cls for cls in (Fig7Sweep, ServiceSolve, OnlineDrift)}


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (Linux only)."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[os.path.basename(path)] = int(getter())
                break
    return out


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError, AttributeError):
        openblas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="JSONL path for the traced run's spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    setup_s = time.perf_counter() - SETUP_START
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = patches = None
    if args.trace:
        tracer = pb_trace.Tracer()
        workload.tracer = tracer
        patches = pb_trace.install(tracer)
    try:
        latencies, wall_s = workload.run()
    finally:
        if patches is not None:
            patches.undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = workload.check()
    record.update(
        attempted=workload.attempted,
        failed=min(failed, workload.attempted),
        problems=problems[:20],
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        latency=pb_stats.latency_summary(latencies),
        latencies_ms=[1e3 * x for x in latencies],
        provenance=provenance(),
    )
    if tracer is not None:
        inputs = workload.layer_inputs() if hasattr(workload, "layer_inputs") else {}
        record["layers"] = pb_trace.layer_metrics(tracer, **inputs)
        record["missing_boundaries"] = pb_trace.missing_boundaries(tracer, args.workload)
        record["n_spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
