"""Command-line interface: regenerate any paper artifact from a shell.

Examples
--------
::

    python -m repro.experiments figure5 --k 5 15 25 --settings-per-k 3
    python -m repro.experiments figure6
    python -m repro.experiments figure7 --k 10 20 30
    python -m repro.experiments headline --settings 20 --jobs 4
    python -m repro.experiments headline --stream --row-sink rows.jsonl
    python -m repro.experiments headline --stream --shards 4 \\
        --shard-backend subprocess --shard-dir campaign/
    python -m repro.experiments shard run campaign/shard-0002.manifest.json \\
        --resume                              # re-run one killed shard
    python -m repro.experiments shard merge campaign/  # assemble tables
    python -m repro.experiments trends --settings 12 \\
        --checkpoint trends.ckpt --resume
    python -m repro.experiments online --scenario table1-small \\
        --events drift-heavy --json report.json   # dynamic re-scheduling
    python -m repro.experiments grid          # print Table 1
    python -m repro.experiments --list-methods     # registry metadata
    python -m repro.experiments --list-scenarios   # scenario registry

Each subcommand prints the numeric series (and an ASCII plot) to stdout;
seeds make every run reproducible. ``--jobs N`` fans the sweep out over
N worker processes with *identical* output (stateless per-task seeds),
and ``--checkpoint``/``--resume`` give interrupted sweeps exact resume.
``--stream`` aggregates through the constant-memory streaming subsystem
(rows are folded as tasks finish, never materialised; ``--row-sink
PATH`` diverts the raw rows to a JSONL/``.csv`` file). ``--shards N``
(with ``--stream``) runs the sweep through the :mod:`repro.distrib`
sharded orchestration layer — contiguous shard manifests, a pluggable
executor backend, per-shard checkpoints under ``--shard-dir``, and an
exactly-associative merge, with output bitwise-identical to the serial
path; the ``shard run``/``shard merge`` subcommands are the host-side
plumbing the ``subprocess`` backend (or a real remote host) invokes.
Invalid flag combinations (``--resume`` without ``--checkpoint``,
``--row-sink``/``--shards`` without ``--stream``, ``--shards`` with
``--checkpoint``) and an unwritable ``--row-sink`` path fail before any
task runs. The sweep subcommands run through the
:class:`repro.api.Solver` facade.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.aggregate import headline_ratios, lpr_failure_stats
from repro.experiments.config import PAPER_GRID, grid_size, sample_settings
from repro.experiments.figures import figure5, figure6, figure7
from repro.experiments.report import render_figure
from repro.experiments.trends import render_trends


def _sweep_solver(args):
    """A :class:`repro.api.Solver` carrying the CLI's execution knobs."""
    from repro.api import Solver, SolverConfig

    return Solver(
        SolverConfig(
            jobs=args.jobs,
            checkpoint=getattr(args, "checkpoint", None),
            resume=getattr(args, "resume", False),
            stream=getattr(args, "stream", False),
            row_sink=getattr(args, "row_sink", None),
            shards=getattr(args, "shards", 1),
            shard_backend=getattr(args, "shard_backend", "process"),
            shard_dir=getattr(args, "shard_dir", None),
        )
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the sweep (1 = serial; results are "
        "identical for any value)",
    )


def _add_stream(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stream",
        action="store_true",
        help="streaming aggregation: fold rows into constant-size "
        "accumulators as tasks finish (memory O(settings), identical "
        "aggregates for any --jobs/resume pattern)",
    )
    parser.add_argument(
        "--row-sink",
        metavar="PATH",
        default=None,
        help="with --stream, write raw sweep rows to PATH (JSON lines, "
        "or CSV when PATH ends in .csv) instead of keeping them in "
        "memory",
    )


def _add_shards(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        metavar="N",
        help="partition the sweep into N shard manifests and merge the "
        "per-shard aggregates (requires --stream; results are "
        "bitwise-identical to the serial path for any N)",
    )
    parser.add_argument(
        "--shard-dir",
        metavar="DIR",
        default=None,
        help="with --shards, keep shard manifests/checkpoints/sinks "
        "under DIR, so an interrupted campaign can resume (per-shard "
        "'shard run --resume' + 'shard merge', or --resume where "
        "available); default: a temporary directory",
    )
    parser.add_argument(
        "--shard-backend",
        choices=["inline", "process", "subprocess"],
        default="process",
        help="executor backend for --shards: inline (sequential, "
        "reference), process (local pool), subprocess (one interpreter "
        "per shard, the multi-host stand-in)",
    )


def _add_checkpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="incrementally checkpoint sweep results to PATH (JSON lines)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a sweep from --checkpoint, re-running only "
        "unfinished tasks",
    )


def _run_shard_command(args) -> int:
    """The ``shard`` subcommand family: host-side campaign plumbing."""
    import json

    if args.shard_command == "run":
        import sys

        from repro.distrib import QUARANTINE_EXIT, run_shard
        from repro.distrib.supervise import QUARANTINE_REPORT_PREFIX
        from repro.parallel.engine import QuarantineError, RetryPolicy

        retry = None
        if getattr(args, "retry", None):
            retry = RetryPolicy.from_dict(json.loads(args.retry))
        try:
            summary = run_shard(args.manifest, resume=args.resume, retry=retry)
        except QuarantineError as exc:
            # Structured quarantine hand-off: the supervisor (or any
            # caller) re-parses this stderr line into TaskFailure
            # records; the distinguished exit code marks the failure
            # deterministic (retrying the shard cannot help).
            report = [f.to_dict() for f in exc.failures]
            print(
                QUARANTINE_REPORT_PREFIX + json.dumps(report, sort_keys=True),
                file=sys.stderr,
            )
            print(str(exc), file=sys.stderr)
            return QUARANTINE_EXIT
        print(json.dumps(summary, sort_keys=True))
        return 0
    if args.shard_command == "status":
        from repro.distrib import campaign_status

        status = campaign_status(args.shard_dir)
        merged = None
        if args.metrics:
            from repro.obs.metrics import MetricsRegistry

            # Heartbeat snapshots merge exactly in any order (the
            # SweepAccumulator contract), so this is the campaign's
            # true cumulative view, not an approximation.
            merged = MetricsRegistry()
            for entry in status:
                snapshot = (entry.get("heartbeat") or {}).get("metrics")
                if snapshot:
                    merged.merge(MetricsRegistry.from_state(snapshot))
        if args.json:
            if merged is not None:
                payload = {"shards": status, "metrics": merged.state_dict()}
            else:
                payload = status
            print(json.dumps(payload, sort_keys=True))
            return 0
        for entry in status:
            state = "done" if entry["complete"] else (
                entry["problem"] or "pending"
            )
            beat = entry["heartbeat_age"]
            beat_txt = "-" if beat is None else f"{beat:.1f}s ago"
            print(
                f"  shard {entry['shard_index']:>4}  tasks "
                f"[{entry['task_start']}, {entry['task_stop']})  folded "
                f"{entry['folded']}/{entry['n_tasks']}  heartbeat "
                f"{beat_txt}  {state}"
            )
        if merged is not None:
            from repro.obs.metrics import render_prometheus

            print()
            print(render_prometheus(merged), end="")
        return 0
    if args.shard_command == "steal":
        from repro.distrib import steal_shard

        part_a, part_b = steal_shard(
            args.shard_dir,
            args.shard_index,
            stale_after=args.stale_after,
            force=args.force,
        )
        if part_b is None:
            print(
                f"shard {args.shard_index} has no stealable remainder "
                f"(trimmed to [{part_a.task_start}, {part_a.task_stop}))"
            )
            return 0
        print(
            f"split shard {args.shard_index}: kept tasks "
            f"[{part_a.task_start}, {part_a.task_stop}), stole "
            f"[{part_b.task_start}, {part_b.task_stop}) into new shard "
            f"{part_b.shard_index}"
        )
        print(
            f"run it with: python -m repro.experiments shard run "
            f"{part_b.manifest_path}"
        )
        return 0
    # shard merge
    from repro.distrib import load_manifests, merge_shards

    manifests = load_manifests(args.shard_dir)
    merged = merge_shards(manifests, row_sink=args.row_sink)
    tables = merged.tables()
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(tables, indent=2, sort_keys=True) + "\n"
        )
    print(
        f"merged {len(manifests)} shards: {merged.n_tasks} tasks, "
        f"{merged.n_rows} rows"
    )
    for key, stats in tables["method_failure"].items():
        print(
            f"  {key:<8} mean ratio {stats['mean_ratio']:.4f}, "
            f"median {stats['median_ratio']:.4f}, "
            f"p95 {stats['p95_ratio']:.4f}, "
            f"zero fraction {stats['zero_fraction']:.4f}"
        )
    return 0


def _render_method_table() -> str:
    """Registry metadata as a fixed-width listing (``--list-methods``)."""
    from repro.core.solve import method_info

    lines = ["registered methods:"]
    infos = method_info()
    width = max(len(name) for name in infos)
    for name, info in infos.items():
        flags = []
        if info.uses_lp:
            flags.append("LP")
        flags.append("det" if info.deterministic else "rng")
        tag = ",".join(flags)
        lines.append(f"  {name:<{width}}  [{tag:<6}] {info.description}")
        if info.aliases:
            lines.append(f"  {'':<{width}}           aliases: "
                         f"{', '.join(info.aliases)}")
        if info.options:
            lines.append(f"  {'':<{width}}           options: "
                         f"{', '.join(info.options)}")
    return "\n".join(lines)


def _render_scenario_table() -> str:
    """Scenario registry as a fixed-width listing (``--list-scenarios``)."""
    from repro.api import available_scenarios, scenario_info

    lines = ["registered scenarios:"]
    names = available_scenarios()
    width = max(len(name) for name in names)
    for name in names:
        info = scenario_info(name)
        lines.append(
            f"  {name:<{width}}  [{info.kind:<8}] {info.description}"
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation artifacts.",
    )
    parser.add_argument(
        "--list-methods",
        action="store_true",
        help="print per-method registry metadata and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario registry and exit",
    )
    sub = parser.add_subparsers(dest="command", required=False)

    p5 = sub.add_parser("figure5", help="LPRG and G vs LP bound over K")
    p5.add_argument("--k", type=int, nargs="+", default=[5, 15, 25, 35])
    p5.add_argument("--settings-per-k", type=int, default=3)
    p5.add_argument("--platforms", type=int, default=3)
    _add_common(p5)
    _add_stream(p5)
    _add_shards(p5)

    p6 = sub.add_parser("figure6", help="LPRR vs G on small-K topologies")
    p6.add_argument("--k", type=int, nargs="+", default=[15, 20, 25])
    p6.add_argument("--settings-per-k", type=int, default=2)
    p6.add_argument("--platforms", type=int, default=2)
    _add_common(p6)
    _add_stream(p6)
    _add_shards(p6)

    p7 = sub.add_parser("figure7", help="running times over K (log scale)")
    p7.add_argument("--k", type=int, nargs="+", default=[10, 15, 20, 25])
    p7.add_argument("--no-lprr", action="store_true")
    _add_common(p7)
    _add_stream(p7)
    _add_shards(p7)

    ph = sub.add_parser("headline", help="Section 6.1 LPRG/G ratios")
    ph.add_argument("--settings", type=int, default=12)
    ph.add_argument("--platforms", type=int, default=2)
    _add_common(ph)
    _add_checkpoint(ph)
    _add_stream(ph)
    _add_shards(ph)

    pt = sub.add_parser("trends", help="Section 6.1 parameter-trend mining")
    pt.add_argument("--settings", type=int, default=12)
    pt.add_argument("--platforms", type=int, default=2)
    pt.add_argument("--objective", choices=["maxmin", "sum"], default="sum")
    _add_common(pt)
    _add_checkpoint(pt)

    ps = sub.add_parser(
        "shard",
        help="multi-host campaign plumbing: run one shard manifest, "
        "inspect per-shard progress, steal a stuck shard's remaining "
        "work, or merge a completed campaign's shards",
    )
    shard_sub = ps.add_subparsers(dest="shard_command", required=True)
    pr = shard_sub.add_parser(
        "run",
        help="execute one shard manifest to completion (what the "
        "subprocess backend — or a remote host — invokes)",
    )
    pr.add_argument("manifest", help="path to a shard-NNNN.manifest.json")
    pr.add_argument(
        "--resume",
        action="store_true",
        help="continue from the shard's own checkpoint instead of "
        "starting the shard fresh",
    )
    pr.add_argument(
        "--retry",
        metavar="JSON",
        default=None,
        help="RetryPolicy as a JSON object (see RetryPolicy.to_dict): "
        "retry transient task failures inside the shard and quarantine "
        "deterministic ones (exit code 3 + a QUARANTINE-REPORT stderr "
        "line) instead of failing the shard",
    )
    pst = shard_sub.add_parser(
        "status",
        help="per-shard progress/liveness of one campaign directory "
        "(heartbeats + checkpoint watermarks; no locks taken)",
    )
    pst.add_argument(
        "shard_dir", help="campaign directory holding shard-*.manifest.json"
    )
    pst.add_argument(
        "--json",
        action="store_true",
        help="machine-readable: one JSON array instead of the table",
    )
    pst.add_argument(
        "--metrics",
        action="store_true",
        help="merge the live metric snapshots from every shard "
        "heartbeat (exactly, in any order) and append them in "
        "Prometheus text form (with --json: a 'metrics' state dict)",
    )
    pw = shard_sub.add_parser(
        "steal",
        help="re-plan a dead/stuck shard: trim it to its checkpoint "
        "watermark and move the remaining task range into a fresh shard "
        "manifest (the merged result stays bitwise-identical)",
    )
    pw.add_argument(
        "shard_dir", help="campaign directory holding shard-*.manifest.json"
    )
    pw.add_argument("shard_index", type=int, help="index of the shard to split")
    pw.add_argument(
        "--stale-after",
        type=float,
        metavar="SECONDS",
        default=None,
        help="refuse unless the shard's heartbeat is older than SECONDS "
        "(liveness guard against stealing from a running shard)",
    )
    pw.add_argument(
        "--force",
        action="store_true",
        help="steal even if the shard's heartbeat looks fresh",
    )
    pm = shard_sub.add_parser(
        "merge",
        help="merge the completed shards of one campaign directory into "
        "the final aggregate tables",
    )
    pm.add_argument(
        "shard_dir", help="campaign directory holding shard-*.manifest.json"
    )
    pm.add_argument(
        "--row-sink",
        metavar="PATH",
        default=None,
        help="also concatenate the per-shard row sinks into PATH",
    )
    pm.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the merged aggregate tables as JSON to PATH",
    )

    psv = sub.add_parser(
        "serve",
        help="run the resident solver service (repro.service) on the "
        "bundled zero-dependency HTTP bridge",
        description="Run the resident solver service. A solve request "
        "for an idle (platform, config) key runs at once on a coalescer "
        "worker; requests for that key arriving meanwhile queue and run "
        "as the next solve_many batch as soon as it ends. Each pooled "
        "warm solver keeps its LP templates and a memo of HiGHS optima, "
        "so a relaxation it has solved before is not solved again.",
    )
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument("--port", type=int, default=8175)
    psv.add_argument(
        "--workers",
        type=int,
        default=8,
        metavar="N",
        help="job-runner threads (concurrent sweeps/async solves)",
    )
    psv.add_argument(
        "--job-store",
        metavar="PATH",
        default=None,
        help="JSONL journal for job lifecycle state (survives restarts); "
        "default keeps jobs in memory only",
    )
    psv.add_argument(
        "--max-solvers",
        type=int,
        default=32,
        metavar="N",
        help="warm Solver instances kept in the LRU pool",
    )
    psv.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )

    po = sub.add_parser(
        "online",
        help="online re-scheduling: replay a dynamic event trace "
        "(drift, failures, churn) against a live schedule with "
        "incremental LP re-solves",
    )
    po.add_argument(
        "--scenario",
        default="table1-small",
        help="registered platform scenario to schedule",
    )
    po.add_argument(
        "--events",
        default="drift-heavy",
        help="registered events scenario (drift-heavy, failure-storm, "
        "churn) or a path to a saved EventTrace *.json",
    )
    po.add_argument(
        "--cold",
        action="store_true",
        help="re-solve from scratch at every event (identical answers; "
        "the no-warm-start baseline)",
    )
    po.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the simulator replay after each event (LP metrics only)",
    )
    po.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the from-scratch oracle solve after each event",
    )
    po.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full DisruptionReport as JSON to PATH",
    )
    po.add_argument("--seed", type=int, default=7, help="RNG seed")

    ptr = sub.add_parser(
        "trace",
        help="run any other subcommand under a structured tracer and "
        "dump the span trees as JSON lines (timings only — the wrapped "
        "command's output is bitwise-unchanged)",
    )
    ptr.add_argument(
        "--out",
        metavar="PATH",
        default="trace.jsonl",
        help="JSONL file receiving one span tree per line "
        "(default: trace.jsonl)",
    )
    ptr.add_argument(
        "cmd",
        nargs=argparse.REMAINDER,
        help="the subcommand to wrap, e.g. `trace -- figure7 --k 10`",
    )

    sub.add_parser("grid", help="print the Table-1 parameter grid")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_methods or args.list_scenarios:
        if args.command is not None:
            parser.error(
                "--list-methods/--list-scenarios cannot be combined with "
                "a subcommand"
            )
        if args.list_methods:
            print(_render_method_table())
        if args.list_scenarios:
            print(_render_scenario_table())
        return 0
    if args.command is None:
        parser.error(
            "a subcommand is required (or --list-methods/--list-scenarios)"
        )
    if args.command == "trace":
        from repro.obs.trace import JsonlTraceSink, Tracer, use_tracer

        rest = list(args.cmd)
        if rest and rest[0] == "--":
            rest = rest[1:]
        if not rest:
            parser.error(
                "trace needs a subcommand to wrap, e.g. "
                "`trace -- figure7 --k 10`"
            )
        if rest[0] == "trace":
            parser.error("trace cannot wrap itself")
        tracer = Tracer()
        with use_tracer(tracer):
            code = main(rest)
        spans = tracer.to_dicts()
        JsonlTraceSink(args.out).write_many(spans)
        print(
            f"trace: wrote {len(spans)} span tree(s) to {args.out}",
            file=sys.stderr,
        )
        return code
    if args.command != "shard":
        if getattr(args, "resume", False):
            if getattr(args, "shards", 1) > 1:
                if not getattr(args, "shard_dir", None):
                    parser.error("--resume with --shards requires --shard-dir")
            elif not getattr(args, "checkpoint", None):
                parser.error("--resume requires --checkpoint")
        if getattr(args, "row_sink", None) and not getattr(args, "stream", False):
            parser.error("--row-sink requires --stream")
        if getattr(args, "shards", 1) > 1 and not getattr(args, "stream", False):
            parser.error("--shards requires --stream")
        if getattr(args, "shard_dir", None) and getattr(args, "shards", 1) < 2:
            parser.error("--shard-dir requires --shards N (N > 1)")
        if getattr(args, "shards", 1) > 1 and getattr(args, "checkpoint", None):
            parser.error(
                "--shards is incompatible with --checkpoint (each shard "
                "keeps its own checkpoint under --shard-dir)"
            )
    # (an unwritable --row-sink path fails fast inside Solver.sweep,
    # before any sweep task runs)

    if args.command == "shard":
        return _run_shard_command(args)
    if args.command == "serve":
        from repro.service import create_app
        from repro.service.server import run_server

        app = create_app(
            job_store=args.job_store,
            max_solvers=args.max_solvers,
            max_workers=args.workers,
        )
        run_server(app, host=args.host, port=args.port, verbose=not args.quiet)
        return 0
    if args.command == "figure5":
        fig = figure5(
            k_values=tuple(args.k),
            settings_per_k=args.settings_per_k,
            platforms_per_setting=args.platforms,
            rng=args.seed,
            solver=_sweep_solver(args),
        )
        print(render_figure(fig))
    elif args.command == "figure6":
        fig = figure6(
            k_values=tuple(args.k),
            settings_per_k=args.settings_per_k,
            platforms_per_setting=args.platforms,
            rng=args.seed,
            solver=_sweep_solver(args),
        )
        print(render_figure(fig))
    elif args.command == "figure7":
        fig = figure7(
            k_values=tuple(args.k),
            include_lprr=not args.no_lprr,
            rng=args.seed,
            solver=_sweep_solver(args),
        )
        print(render_figure(fig))
    elif args.command == "headline":
        settings = sample_settings(args.settings, rng=args.seed, k_values=[5, 15, 25])
        result = _sweep_solver(args).sweep(
            settings,
            methods=("greedy", "lprg"),
            objectives=("maxmin", "sum"),
            n_platforms=args.platforms,
            rng=args.seed,
        )
        ratios = result.headline_ratios() if args.stream else headline_ratios(result)
        print("LPRG/G value ratios   [paper: MAXMIN 1.98, SUM 1.02]")
        print(f"  MAXMIN: {ratios['maxmin']:.3f}")
        print(f"  SUM:    {ratios['sum']:.3f}")
    elif args.command == "trends":
        settings = sample_settings(args.settings, rng=args.seed, k_values=[15])
        rows = _sweep_solver(args).sweep(
            settings,
            methods=("greedy", "lpr", "lprg"),
            objectives=(args.objective,),
            n_platforms=args.platforms,
            rng=args.seed,
        )
        print(render_trends(rows, args.objective))
        stats = lpr_failure_stats(rows)
        print(
            f"\nLPR failure stats: mean ratio {stats['mean_ratio']:.3f}, "
            f"zero fraction {stats['zero_fraction']:.3f}"
        )
    elif args.command == "online":
        import json as _json
        from pathlib import Path

        from repro.api import Solver, SolverConfig
        from repro.dynamic import DynamicOptions, EventTrace

        options = DynamicOptions(
            replay=not args.no_replay, check_oracle=not args.no_oracle
        )
        solver = Solver(
            SolverConfig(warm_start=not args.cold, dynamic=options)
        )
        events = args.events
        if events.endswith(".json"):
            events = EventTrace.load(events)
        report = solver.run_online(args.scenario, events, rng=args.seed)
        s = report.summary()
        print(f"online re-scheduling: {args.scenario} x {args.events}")
        print(f"  events applied      {s['n_events']}  {s['by_classification']}")
        print(f"  warm iterations     {s['warm_iterations']}")
        if s["oracle_iterations"] is not None:
            print(f"  oracle iterations   {s['oracle_iterations']}")
            print(f"  iteration reduction {s['iteration_reduction']:.1%}")
            match = "all bitwise" if s["all_oracle_match"] else "MISMATCH"
            print(f"  oracle match        {match}")
        print(
            f"  mean re-optimize    {s['mean_reoptimize_seconds'] * 1e3:.2f} ms"
        )
        print(f"  mean churn          {s['mean_churn']:.3f}")
        print(f"  mean deficit        {s['mean_throughput_deficit']:.3f}")
        print(f"  value {s['initial_value']:.4f} -> {s['final_value']:.4f}")
        if args.json:
            Path(args.json).write_text(
                _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
            )
    elif args.command == "grid":
        print("Table 1 parameter grid:")
        for name, values in PAPER_GRID.items():
            print(f"  {name:<14} {list(values)}")
        print(f"  -> {grid_size():,} settings x 10 platforms each")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
