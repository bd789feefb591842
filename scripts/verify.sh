#!/usr/bin/env bash
# Tier-1 verification + subsystem benchmark smoke.
#
#   scripts/verify.sh            # full test suite + all subsystem gates
#   REPRO_JOBS=4 scripts/verify.sh   # engine-backed benchmarks on 4 workers
#
# The benchmark step runs the parallel-scaling benchmark (which asserts
# serial/parallel bitwise equivalence and, given >= 4 cores, >1.5x
# speedup at 4 workers) plus the two engine-backed paper benchmarks, so
# a regression in the campaign engine fails verification even though
# bench_*.py files are not collected by the plain pytest run.
#
# The warm-start smoke (bench_warmstart.py) gates the LPSession
# subsystem: warm LPRR must match cold bitwise AND spend strictly fewer
# (>= 30% fewer) simplex iterations, and the warm session must beat the
# cold-HiGHS-per-solve reference at every K without a single HiGHS
# fallback; it refreshes BENCH_warmstart.json.
#
# The simplex-core step gates the revised engine (repro/lp/revised.py +
# repro/lp/basis_lu.py), the package's only simplex: its two engine
# suites (machinery, and the HiGHS-checked simplex contract with its
# numerical hazards) and the session suite run explicitly, and the
# core smoke (bench_simplex_core.py) asserts the sparse LU-factorized
# warm chains beat cold HiGHS on LPRR pin chains up to K=20 (K=30 under
# REPRO_FULL=1) with zero HiGHS fallbacks, and on B&B bound-flip
# chains; it refreshes BENCH_simplex_core.json.
#
# The API step re-runs the public-surface snapshot + examples smoke on
# their own (fast, loud names in the log), and the api-reuse smoke gates
# the Solver facade's cross-call state: reused solves must stay bitwise-
# identical while cutting cold LP builds >= 30%; it refreshes
# BENCH_api_reuse.json.
#
# The streaming step gates the streaming aggregation subsystem
# (repro/parallel/stream.py): it re-runs the equivalence + accumulator
# suites explicitly — so a deselecting/skipping change cannot silently
# drop them (pytest exits non-zero when a named file collects nothing) —
# and the memory smoke (bench_stream_memory.py) asserts streamed
# aggregates are bitwise-identical to the in-memory reference with peak
# aggregation state O(settings), not O(rows); it refreshes
# BENCH_stream_memory.json.
#
# The sharding step gates the distributed orchestration subsystem
# (repro/distrib/): the partition-property + campaign suites run
# explicitly, and the shard-merge smoke (bench_shard_merge.py) asserts
# merged aggregates from shards {1,2,5} x backends
# {inline,process,subprocess} — including a shard killed mid-run and
# resumed — are bitwise-identical to the serial fold; it refreshes
# BENCH_shard_merge.json.
#
# The supervision step gates the fault-tolerance subsystem
# (repro/util/faults.py + repro/distrib/supervise.py): the fault-plan,
# supervision and recovery-property suites run explicitly, and the
# fault-recovery smoke (bench_fault_recovery.py) asserts that injected
# faults — transient task-error storms, shard kills with torn
# checkpoint tails, stragglers — are healed by retry/resume/stealing
# with the merged aggregate bitwise-identical to the fault-free serial
# fold and bounded recovery cost; it refreshes BENCH_fault_recovery.json.
#
# The service step gates the resident-solver HTTP layer
# (repro/service/): the jobstore, coalescer and end-to-end app suites
# run explicitly, and the service smoke (bench_service.py) asserts a
# same-platform request storm is served >= 95% from warm solvers,
# >= 1000 sweep jobs held in flight all drain to done, and streamed
# rows fold client-side bitwise into the serial jobs=1 reference; it
# refreshes BENCH_service.json.
#
# The dynamic step gates the online re-scheduling subsystem
# (repro/dynamic/): the trace, scheduler and exactness-property suites
# run explicitly, and the online smoke (bench_online.py) asserts every
# incremental re-solve is bitwise-identical to the from-scratch oracle
# across every registered event-trace family, with >= 40% fewer simplex
# iterations on drift traces; it refreshes BENCH_online.json.
#
# The telemetry step gates the observability subsystem (repro/obs/):
# the trace, metrics, invisibility and service-observability suites run
# explicitly, and the telemetry smoke (bench_telemetry.py) asserts the
# disabled no-op path costs < 1% of a warm LPRR solve, fully-enabled
# tracing+metrics stays within 5% of the disabled chain, and results
# (solve values, sweep accumulator states) are bitwise-identical with
# telemetry on, off, or mixed; it refreshes BENCH_telemetry.json.
#
# Every BENCH_*.json gate is additionally verified to have been
# (re)emitted by THIS run (require_fresh below): a benchmark that
# silently skips, deselects, or exits before its assertions can no
# longer pass verification on the strength of a stale artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# mtime watermark: every benchmark artifact must end up newer than this
VERIFY_STAMP="$(mktemp)"
trap 'rm -f "$VERIFY_STAMP"' EXIT

require_fresh() {
    local artifact
    for artifact in "$@"; do
        if [[ ! -f "$artifact" ]]; then
            echo "verify.sh: ERROR: benchmark gate $artifact was never emitted" >&2
            exit 1
        fi
        if [[ ! "$artifact" -nt "$VERIFY_STAMP" ]]; then
            echo "verify.sh: ERROR: benchmark gate $artifact is stale" \
                 "(not refreshed by this verification run)" >&2
            exit 1
        fi
    done
}

echo "== tier-1: full test suite =="
python -m pytest -x -q

echo
echo "== api surface + examples smoke =="
python -m pytest -x -q tests/test_api_surface.py tests/test_examples_smoke.py

echo
echo "== benchmark smoke: campaign engine =="
python -m pytest -x -q -s \
    benchmarks/bench_parallel_scaling.py \
    benchmarks/bench_headline_ratios.py \
    benchmarks/bench_fig5_lprg_vs_g.py

echo
echo "== benchmark smoke: warm-started LP re-solves =="
python -m pytest -x -q -s benchmarks/bench_warmstart.py
require_fresh BENCH_warmstart.json

echo
echo "== revised simplex core: engine suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_lp_revised.py \
    tests/test_lp_simplex.py \
    tests/test_lp_session.py

echo
echo "== benchmark smoke: revised-simplex core =="
python -m pytest -x -q -s benchmarks/bench_simplex_core.py
require_fresh BENCH_simplex_core.json

echo
echo "== benchmark smoke: solver facade reuse =="
python -m pytest -x -q -s benchmarks/bench_api_reuse.py
require_fresh BENCH_api_reuse.json

echo
echo "== streaming aggregation: equivalence suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_stream_equivalence.py \
    tests/test_stream_accumulators.py

echo
echo "== benchmark smoke: streaming aggregation memory =="
python -m pytest -x -q -s benchmarks/bench_stream_memory.py
require_fresh BENCH_stream_memory.json

echo
echo "== sharded orchestration: merge + campaign suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_distrib_merge.py \
    tests/test_distrib_campaign.py

echo
echo "== benchmark smoke: sharded campaign merge =="
python -m pytest -x -q -s benchmarks/bench_shard_merge.py
require_fresh BENCH_shard_merge.json

echo
echo "== supervision: fault + recovery suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_faults.py \
    tests/test_supervise.py \
    tests/test_fault_recovery_property.py

echo
echo "== benchmark smoke: supervised fault recovery =="
python -m pytest -x -q -s benchmarks/bench_fault_recovery.py
require_fresh BENCH_fault_recovery.json

echo
echo "== service layer: jobstore + coalescer + e2e suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_service_jobstore.py \
    tests/test_service_coalescer.py \
    tests/test_service_app.py

echo
echo "== benchmark smoke: resident solver service =="
python -m pytest -x -q -s benchmarks/bench_service.py
require_fresh BENCH_service.json

echo
echo "== online re-scheduling: dynamic suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_dynamic_trace.py \
    tests/test_dynamic_online.py \
    tests/test_dynamic_property.py

echo
echo "== benchmark smoke: online incremental re-solve =="
python -m pytest -x -q -s benchmarks/bench_online.py
require_fresh BENCH_online.json

echo
echo "== observability: telemetry suites (must not be deselected) =="
python -m pytest -x -q \
    tests/test_obs_trace.py \
    tests/test_obs_metrics.py \
    tests/test_obs_invisibility.py \
    tests/test_obs_logging_and_timing.py \
    tests/test_distrib_heartbeat.py \
    tests/test_service_observability.py

echo
echo "== benchmark smoke: telemetry overhead =="
python -m pytest -x -q -s benchmarks/bench_telemetry.py
require_fresh BENCH_telemetry.json

echo
echo "verify.sh: all checks passed"
