"""End-to-end sharded-campaign orchestration (repro.distrib + facade).

Covers the facade/CLI surface of the sharding subsystem: config
validation, `Solver.sweep` dispatch across every executor backend, the
assembled row sink, per-shard crash/resume, and the ``shard run`` /
``shard merge`` host-side CLI. Cross-run comparisons drop the runtime
table (wall clock is the one sanctioned difference between separate
executions of a real sweep); everything else must match bitwise.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Solver, SolverConfig
from repro.experiments import sample_settings
from repro.experiments.cli import main
from repro.experiments.persistence import load_rows_csv, load_rows_jsonl
from repro.parallel.stream import SweepAccumulator
from repro.util.errors import SolverError

from tests.test_parallel_equivalence import assert_rows_identical


def tables_sans_runtime(agg) -> str:
    tables = agg.tables()
    tables.pop("runtime_mean_by_k")
    return json.dumps(tables, sort_keys=True)


class TestConfigValidation:
    def test_shards_require_stream(self):
        with pytest.raises(SolverError, match="stream"):
            SolverConfig(shards=2)

    def test_shard_dir_requires_shards(self):
        with pytest.raises(SolverError, match="shard_dir requires"):
            SolverConfig(shard_dir="/tmp/x")

    def test_shards_refuse_campaign_checkpoint(self):
        with pytest.raises(SolverError, match="incompatible"):
            SolverConfig(shards=2, stream=True, checkpoint="c.ckpt")

    def test_sharded_resume_requires_shard_dir(self):
        with pytest.raises(SolverError, match="persistent shard_dir"):
            SolverConfig(shards=2, stream=True, resume=True)

    def test_unknown_backend_is_refused(self):
        with pytest.raises(SolverError, match="shard_backend"):
            SolverConfig(shard_backend="carrier-pigeon")

    def test_invalid_shard_count(self):
        with pytest.raises(SolverError, match="shards"):
            SolverConfig(shards=0)

    def test_chunk_size_refused_with_shards(self):
        """chunk_size is an intra-campaign pool knob; silently ignoring
        it under sharding would hide a no-op tuning attempt."""
        with pytest.raises(SolverError, match="chunk_size has no effect"):
            SolverConfig(shards=2, stream=True, chunk_size=10)

    def test_custom_registered_backend_passes_validation(self):
        from repro.distrib import (
            InlineShardExecutor,
            ShardError,
            register_shard_backend,
        )
        from repro.distrib.executor import _BACKENDS

        class _Custom(InlineShardExecutor):
            name = "custom-test"

        register_shard_backend("custom-test", _Custom)
        try:
            config = SolverConfig(
                shards=2, stream=True, shard_backend="custom-test"
            )
            assert config.shard_backend == "custom-test"
        finally:
            _BACKENDS.pop("custom-test", None)

    def test_valid_sharded_config_round_trips(self):
        config = SolverConfig(
            shards=3, stream=True, shard_backend="inline", shard_dir="/tmp/s"
        )
        clone = SolverConfig.from_dict(config.to_dict())
        assert clone == config


class TestShardedSweepEquivalence:
    @pytest.fixture(scope="class")
    def sweep_def(self):
        return dict(
            settings=sample_settings(3, rng=21, k_values=[3, 4]),
            kwargs=dict(
                methods=("greedy", "lprg"),
                objectives=("maxmin", "sum"),
                n_platforms=2,
                rng=21,
            ),
        )

    @pytest.fixture(scope="class")
    def reference(self, sweep_def):
        rows = Solver().sweep(sweep_def["settings"], **sweep_def["kwargs"])
        agg = SweepAccumulator.from_rows(
            rows,
            methods=sweep_def["kwargs"]["methods"],
            objectives=sweep_def["kwargs"]["objectives"],
        )
        return rows, agg

    @pytest.mark.parametrize(
        "backend,shards",
        [
            ("inline", 2),
            ("inline", 5),
            ("inline", 9),  # more shards than the 6 tasks
            ("process", 2),
            ("subprocess", 2),
        ],
    )
    def test_backends_and_shard_counts_match_serial(
        self, sweep_def, reference, backend, shards
    ):
        _, ref_agg = reference
        solver = Solver(
            SolverConfig(
                stream=True,
                shards=shards,
                shard_backend=backend,
                jobs=2,  # real concurrency for the pool/subprocess backends
            )
        )
        agg = solver.sweep(sweep_def["settings"], **sweep_def["kwargs"])
        assert tables_sans_runtime(agg) == tables_sans_runtime(ref_agg)

    def test_facade_sweep_returns_merged_accumulator(
        self, sweep_def, reference
    ):
        _, ref_agg = reference
        solver = Solver(
            SolverConfig(stream=True, shards=2, shard_backend="inline")
        )
        agg = solver.sweep(sweep_def["settings"], **sweep_def["kwargs"])
        assert isinstance(agg, SweepAccumulator)
        assert tables_sans_runtime(agg) == tables_sans_runtime(ref_agg)

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_assembled_row_sink_holds_every_row_in_order(
        self, sweep_def, reference, tmp_path, suffix
    ):
        rows, _ = reference
        sink = tmp_path / f"rows{suffix}"
        solver = Solver(
            SolverConfig(
                stream=True,
                shards=3,
                shard_backend="inline",
                shard_dir=str(tmp_path / "shards"),
                row_sink=str(sink),
            )
        )
        solver.sweep(sweep_def["settings"], **sweep_def["kwargs"])
        loader = load_rows_csv if suffix == ".csv" else load_rows_jsonl
        assert_rows_identical(loader(sink), rows)

    def test_killed_shard_resumes_without_losing_a_bit(
        self, sweep_def, reference, tmp_path
    ):
        """Simulate a mid-run kill of one shard (truncate its checkpoint
        to the first task record, drop its sidecar), then resume the
        campaign: the merged aggregate must equal the serial fold."""
        _, ref_agg = reference
        shard_dir = tmp_path / "shards"
        sharded = dict(
            stream=True, shards=3, shard_backend="inline", shard_dir=str(shard_dir)
        )
        Solver(SolverConfig(**sharded)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        ckpt = shard_dir / "shard-0000.ckpt"
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:2]) + "\n")  # header + 1 task
        (shard_dir / "shard-0000.ckpt.state").unlink()
        resumed = Solver(SolverConfig(**sharded, resume=True)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        assert tables_sans_runtime(resumed) == tables_sans_runtime(ref_agg)

    def test_sequential_jobs_one_matches_pool_jobs(self, sweep_def, reference):
        """jobs keeps its facade meaning under sharding: 1 = one shard
        at a time, N = N concurrent shards — results identical."""
        _, ref_agg = reference
        for jobs in (1, 2):
            solver = Solver(
                SolverConfig(
                    stream=True, shards=3, shard_backend="process", jobs=jobs
                )
            )
            agg = solver.sweep(sweep_def["settings"], **sweep_def["kwargs"])
            assert tables_sans_runtime(agg) == tables_sans_runtime(ref_agg)

    def test_completed_campaign_resume_recomputes_nothing(
        self, sweep_def, tmp_path, monkeypatch
    ):
        sharded = dict(
            stream=True,
            shards=2,
            shard_backend="inline",
            shard_dir=str(tmp_path / "shards"),
        )
        first = Solver(SolverConfig(**sharded)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )

        def forbidden(task):  # pragma: no cover - must not be reached
            raise AssertionError("resume must not re-run completed tasks")

        monkeypatch.setattr("repro.parallel.sweep.run_sweep_task", forbidden)
        monkeypatch.setattr("repro.parallel.run_sweep_task", forbidden)
        resumed = Solver(SolverConfig(**sharded, resume=True)).sweep(
            sweep_def["settings"], **sweep_def["kwargs"]
        )
        # snapshot-restored shards preserve even the runtime table
        assert json.dumps(resumed.tables(), sort_keys=True) == json.dumps(
            first.tables(), sort_keys=True
        )


class TestExecutorFailureModes:
    def test_failing_subprocess_shard_aborts_promptly(self, tmp_path):
        """A shard whose interpreter exits non-zero must surface as a
        ShardError (with its stderr) — never hang the dispatch loop,
        even with more shards pending than job slots."""
        from repro.distrib import ShardError, SubprocessShardExecutor

        bad = tmp_path / "bad.manifest.json"
        bad.write_text(json.dumps({"kind": "shard-manifest"}))  # no version
        with pytest.raises(ShardError, match="exited with code"):
            SubprocessShardExecutor(jobs=1).run([bad, bad, bad])

    def test_unknown_backend_name_lists_alternatives(self):
        from repro.distrib import ShardError, get_shard_executor

        with pytest.raises(ShardError, match="inline, process, subprocess"):
            get_shard_executor("osmosis")

    def test_subprocess_failure_carries_exit_code_and_stderr(self, tmp_path):
        """The raised error must hold the child's exit code, manifest
        path and stderr tail as attributes — postmortems should not
        need to re-run the shard to learn why it died."""
        from repro.distrib import SubprocessShardExecutor
        from repro.distrib.executor import ShardExitError

        bad = tmp_path / "bad.manifest.json"
        bad.write_text(json.dumps({"kind": "shard-manifest"}))  # no version
        with pytest.raises(ShardExitError) as excinfo:
            SubprocessShardExecutor(jobs=1).run([bad])
        exc = excinfo.value
        assert exc.manifest_path == str(bad)
        assert exc.returncode not in (0, None)
        assert "manifest" in exc.stderr_tail  # the child's actual complaint
        assert str(bad) in str(exc) and str(exc.returncode) in str(exc)


class TestBackendRegistry:
    def test_duplicate_registration_is_refused_unless_replaced(self):
        from repro.distrib import (
            InlineShardExecutor,
            ShardError,
            register_shard_backend,
        )
        from repro.distrib.executor import _BACKENDS

        class Variant(InlineShardExecutor):
            pass

        with pytest.raises(ShardError, match="already registered"):
            register_shard_backend("inline", Variant)
        assert _BACKENDS["inline"] is InlineShardExecutor  # untouched
        register_shard_backend("variant", Variant)
        try:
            with pytest.raises(ShardError, match="already registered"):
                register_shard_backend("variant", InlineShardExecutor)
            register_shard_backend("variant", InlineShardExecutor,
                                   replace=True)
            assert _BACKENDS["variant"] is InlineShardExecutor
        finally:
            _BACKENDS.pop("variant", None)

    def test_unknown_backend_suggests_near_miss(self):
        from repro.distrib import ShardError, get_shard_executor

        with pytest.raises(ShardError, match=r"did you mean 'process'\?"):
            get_shard_executor("proces")

    def test_available_backends_list_builtins_first(self):
        from repro.distrib import (
            InlineShardExecutor,
            available_shard_backends,
            register_shard_backend,
        )
        from repro.distrib.executor import _BACKENDS

        assert available_shard_backends()[:3] == [
            "inline", "process", "subprocess",
        ]
        register_shard_backend("aaa-custom", InlineShardExecutor)
        try:
            names = available_shard_backends()
            # extensions sort after the built-ins, not alphabetically first
            assert names[:3] == ["inline", "process", "subprocess"]
            assert "aaa-custom" in names[3:]
        finally:
            _BACKENDS.pop("aaa-custom", None)


class TestCli:
    def test_shard_flag_validation(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["headline", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "--shards requires --stream" in capsys.readouterr().err

        with pytest.raises(SystemExit) as excinfo:
            main(["headline", "--stream", "--shard-dir", "d"])
        assert excinfo.value.code == 2
        assert "--shard-dir requires --shards" in capsys.readouterr().err

        with pytest.raises(SystemExit) as excinfo:
            main([
                "headline", "--stream", "--shards", "2",
                "--checkpoint", "c.ckpt",
            ])
        assert excinfo.value.code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_sharded_resume_flag_is_accepted(self, tmp_path, capsys):
        """--resume + --shards + --shard-dir is the CLI recovery path:
        it must be accepted (and must not demand --checkpoint)."""
        argv = ["headline", "--settings", "2", "--platforms", "1",
                "--seed", "3", "--stream", "--shards", "2",
                "--shard-backend", "inline",
                "--shard-dir", str(tmp_path / "camp")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_shard_flags_parse_on_every_sweep_command(self):
        from repro.experiments.cli import build_parser

        parser = build_parser()
        for command in ("figure5", "figure6", "figure7", "headline"):
            args = parser.parse_args(
                [command, "--stream", "--shards", "3",
                 "--shard-backend", "inline"]
            )
            assert args.shards == 3 and args.shard_backend == "inline"

    def test_headline_sharded_matches_serial(self, capsys):
        argv = ["headline", "--settings", "2", "--platforms", "1",
                "--seed", "3", "--stream"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--shards", "2", "--shard-backend", "inline"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded
        assert "LPRG/G value ratios" in serial

    def test_shard_run_and_merge_round_trip(self, tmp_path, capsys):
        from repro.distrib import build_shard_manifests, write_manifests
        from repro.experiments.config import DEFAULT_SCENARIO
        from repro.util.rng import seed_sequence_of

        settings = sample_settings(2, rng=4, k_values=[3])
        manifests = build_shard_manifests(
            settings, DEFAULT_SCENARIO, ("greedy",), ("maxmin",), 1,
            seed_sequence_of(4), n_shards=2, shard_dir=tmp_path,
        )
        write_manifests(manifests, tmp_path)
        for index in range(2):
            assert main([
                "shard", "run",
                str(tmp_path / f"shard-{index:04d}.manifest.json"),
            ]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["shard_index"] == index
        out_json = tmp_path / "merged.json"
        assert main([
            "shard", "merge", str(tmp_path), "--json", str(out_json),
        ]) == 0
        assert "merged 2 shards: 2 tasks" in capsys.readouterr().out
        tables = json.loads(out_json.read_text())
        assert tables["n_tasks"] == 2
        # the written tables are exactly the serial fold's
        rows = Solver().sweep(
            settings, methods=("greedy",), objectives=("maxmin",),
            n_platforms=1, rng=4,
        )
        ref = SweepAccumulator.from_rows(
            rows, methods=("greedy",), objectives=("maxmin",)
        ).tables()
        tables.pop("runtime_mean_by_k")
        ref.pop("runtime_mean_by_k")
        assert json.dumps(tables, sort_keys=True) == json.dumps(
            ref, sort_keys=True
        )
