"""perfbench: the repository's end-to-end benchmark harness.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Workloads, metric
definitions and the noise controls are described in perfbench/README.md.

Every workload process is fresh, runs with one BLAS thread and is
pinned to one CPU, which an idle-priority busy loop keeps from halting
while the workload processes run. With ``--trace 0`` the harness runs the workload once
for its timings and :data:`SETUP_RUNS` - 1 more times up to the end of
set-up only, and reports the median set-up time. With ``--trace 1`` it runs the workload
untraced and then traced on the same inputs, and reports the traced
run's per-layer metrics plus the difference of the two wall times (the
tracing overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from pb_trace import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("fig7-sweep", "service-solve", "online-drift")

#: end-to-end metric -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: set-up samples per untraced run (one from the timed process)
SETUP_RUNS = 3

#: a run must end within this many seconds of starting
DEADLINE_S = 170.0

#: every workload process runs with one BLAS/OpenMP thread. By default
#: OpenBLAS starts one thread per core; on a 2-core host a K=16 LPRR
#: solve then burned 3.3 s of CPU in 1.7 s of wall time (1.5 s on one
#: thread) and returned a bitwise-different allocation
NOISE_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

OUT_DIR = os.path.join(HERE, "out")


def pin_to_one_cpu() -> "int | None":
    """Pin this process, and so every workload process it starts, to the
    highest-numbered usable CPU.

    Thread hand-offs between the vCPUs of a busy VM wait for the
    hypervisor: unpinned, the service tail tracked CPU steal (p95
    22.6-32.6 ms over six runs with 0.4-2.7 s of steal); pinned it held
    23.4-26.3 ms (0.1-1.1 s of steal), for a 5% higher median.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (non-Linux)
        return None
    os.sched_setaffinity(0, {cpu})
    return cpu


#: an idle-priority busy loop that ends when the harness that started it
#: (argv[1]) is gone, even if the harness was killed
SPINNER = """\
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    pass
"""


@contextlib.contextmanager
def cpu_kept_awake():
    """Keep the pinned CPU from halting while the workload processes run.

    A halted vCPU waits for the hypervisor to schedule it again when a
    thread wakes, and the service's request path sleeps and wakes
    threads several times per request. An idle-priority busy loop on
    the same CPU takes no time from a runnable thread (a waking thread
    preempts it at once) but keeps the vCPU running: over seven
    alternating pairs of service-solve runs, the runs with it were
    faster in six, and the spread of their p75 fell from 34% to 7% of
    the median (wall 26% to 10%).
    """
    if not hasattr(os, "SCHED_IDLE"):  # pragma: no cover - non-Linux
        yield
        return
    spinner = subprocess.Popen(
        [sys.executable, "-c", SPINNER, str(os.getpid())],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


class BenchError(Exception):
    """A run that cannot produce a result."""


def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host period
    apart from a regression. Recorded only; it adjusts nothing."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def cpu_times() -> "dict | None":
    """Host-wide CPU time counters (seconds) from ``/proc/stat``; the
    ``steal`` share shows time the hypervisor gave to other guests."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    ticks = os.sysconf("SC_CLK_TCK")
    return {name: int(value) / ticks for name, value in zip(names, fields[1:])}


def source_identity(root: str) -> dict:
    """Git sha when the checkout has one, plus a digest of ``src``."""
    sha = None
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                sha = fh.read().strip()
        else:
            sha = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


class Harness:
    def __init__(self, root: str, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.cpu = pin_to_one_cpu()
        self.env = dict(os.environ)
        self.env.update(NOISE_ENV)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def child(self, *extra: str) -> dict:
        """Run one workload process to completion; its last stdout line."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next workload process")
        cmd = [
            sys.executable, os.path.join(HERE, "pb_workloads.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), *extra,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process timed out: {' '.join(extra)}") from None
        if proc.returncode != 0:
            raise BenchError(
                f"workload process failed ({proc.returncode}):\n{proc.stderr[-3000:]}"
            )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("workload process printed no record")
        return json.loads(lines[-1])

    def provenance(self, record: dict, probes: list, cpu: list) -> dict:
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            usable = None
        return {
            **source_identity(self.root),
            **record.get("provenance", {}),
            "host": platform.node(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "usable_cpus": usable,
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "pinned_cpu": self.cpu,
            "cpu_probe_s": probes,
            "host_cpu_s": (
                None if None in cpu
                else {name: cpu[1][name] - cpu[0][name] for name in cpu[0]}
            ),
        }

    def untraced(self) -> "tuple[dict, dict]":
        setups = [
            self.child("--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
        record = self.child()
        setups.append(record["setup_s"])
        latency = record["latency"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": record["wall_s"],
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency.get("tail_ms"),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {
            name: (values[name], unit)
            for name, unit in END_TO_END.items()
            if values[name] is not None
        }
        tail = (
            f"p{latency['tail_pct']:g} {latency['tail_ms']:.2f} ms"
            if "tail_ms" in latency else "no tail (too few ops)"
        )
        print(
            f"{self.workload} seed={self.seed}: {latency['n']} ops, "
            f"p50 {latency['p50_ms']:.2f} ms, {tail}, "
            f"wall {record['wall_s']:.3f} s, set-up {metrics['setup_s'][0]:.3f} s "
            f"(median of {len(setups)}), peak RSS {record['peak_rss_mb']:.1f} MB"
        )
        record["setup_samples"] = setups
        return record, metrics

    def traced(self) -> "tuple[dict, dict]":
        plain = self.child()
        spans = os.path.join(OUT_DIR, f"{self.workload}-seed{self.seed}-spans.jsonl")
        record = self.child("--trace", "--spans", spans)
        missing = record["missing_boundaries"]
        if missing:
            raise BenchError(
                f"{self.workload}: traced boundaries recorded no calls: "
                + ", ".join(missing)
            )
        units = dict(LAYER_METRICS)
        overhead = record["wall_s"] - plain["wall_s"]
        metrics = {
            name: (value, units[name]) for name, value in record["layers"].items()
        }
        metrics["trace.overhead_s"] = (overhead, "s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.4f} {unit}")
        print(
            f"{self.workload} seed={self.seed}: tracing overhead "
            f"{overhead:+.3f} s on {plain['wall_s']:.3f} s untraced "
            f"({record['n_spans']} spans, written to {os.path.relpath(spans, self.root)})"
        )
        # both processes ran and checked the same ops
        record["attempted"] += plain["attempted"]
        record["failed"] += plain["failed"]
        record["problems"] = plain["problems"] + record["problems"]
        return record, metrics

    def run(self, trace: bool) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        probes = [cpu_probe()]
        cpu = [cpu_times()]
        with cpu_kept_awake():
            record, metrics = self.traced() if trace else self.untraced()
        cpu.append(cpu_times())
        probes.append(cpu_probe())
        record["provenance"] = self.provenance(record, probes, cpu)
        name = f"{self.workload}-seed{self.seed}-trace{int(trace)}.json"
        with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        print(json.dumps({"provenance": record["provenance"]}, sort_keys=True), file=sys.stderr)
        for problem in record["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    try:
        result = Harness(root, args.workload, args.seed, args.seconds).run(bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
