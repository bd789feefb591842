"""Shard planning + merge-layer correctness (repro.distrib).

The load-bearing property pinned here is **partition invariance**:
merging the per-shard aggregates of *any* contiguous partition of a
campaign's task list — empty shards, single-task shards, more shards
than tasks — equals :meth:`SweepAccumulator.from_rows` over the full
row list **bitwise** (the accumulator algebra merges by exact integer
arithmetic, so shard boundaries can never move a single bit). On top of
that: manifest round-trips, planner laws, and the merge layer's
refusal modes (incomplete shards, foreign campaigns, gaps).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.distrib import (
    ShardError,
    ShardManifest,
    build_shard_manifests,
    load_manifests,
    merge_accumulators,
    merge_shards,
    plan_shards,
    run_shard,
    write_manifests,
)
from repro.experiments import sample_settings
from repro.experiments.config import DEFAULT_SCENARIO
from repro.parallel.stream import SweepAccumulator
from repro.util.rng import seed_sequence_of

from tests.strategies import shard_partitions, sweep_shapes
from tests.test_stream_equivalence import synthetic_task_rows, synthetic_tasks


def dumps(tables: dict) -> str:
    return json.dumps(tables, sort_keys=True)


class TestPlanShards:
    @given(
        n_tasks=st.integers(min_value=0, max_value=200),
        n_shards=st.integers(min_value=1, max_value=24),
    )
    def test_contiguous_balanced_cover(self, n_tasks, n_shards):
        ranges = plan_shards(n_tasks, n_shards)
        assert len(ranges) == n_shards
        expected = 0
        for start, stop in ranges:
            assert start == expected and stop >= start
            expected = stop
        assert expected == n_tasks
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1  # balanced
        assert sizes == sorted(sizes, reverse=True)  # extras go first

    def test_more_shards_than_tasks_yields_empty_tails(self):
        assert plan_shards(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_invalid_inputs_are_refused(self):
        with pytest.raises(ShardError, match="n_shards"):
            plan_shards(5, 0)
        with pytest.raises(ShardError, match="n_tasks"):
            plan_shards(-1, 2)


class TestPartitionInvariance:
    """merge(fold(part) for part in partition) == from_rows(all), bitwise."""

    @hyp_settings(max_examples=40)
    @given(shape=sweep_shapes(), data=st.data())
    def test_any_partition_merges_bitwise(self, shape, data):
        tasks = synthetic_tasks(shape)
        all_rows = [row for t in tasks for row in synthetic_task_rows(t)]
        reference = SweepAccumulator.from_rows(
            all_rows, methods=shape["methods"], objectives=shape["objectives"]
        )
        partition = data.draw(shard_partitions(len(tasks)))
        parts = []
        for start, stop in partition:
            part = SweepAccumulator()
            for task in tasks[start:stop]:
                part.fold_task(synthetic_task_rows(task))
            parts.append(part)
        merged = merge_accumulators(parts)
        # bitwise: the state dicts (exact integer sums) must be equal,
        # not merely the rounded tables
        assert merged.state_dict() == reference.state_dict()
        assert dumps(merged.tables()) == dumps(reference.tables())

    @hyp_settings(max_examples=20)
    @given(shape=sweep_shapes(), data=st.data())
    def test_merge_accepts_state_dicts_via_json(self, shape, data):
        """Shard states travel as JSON files; round-tripping each part
        through json must not cost a bit."""
        tasks = synthetic_tasks(shape)
        partition = data.draw(shard_partitions(len(tasks), max_shards=4))
        parts = []
        for start, stop in partition:
            part = SweepAccumulator()
            for task in tasks[start:stop]:
                part.fold_task(synthetic_task_rows(task))
            parts.append(json.loads(json.dumps(part.state_dict())))
        whole = SweepAccumulator()
        for task in tasks:
            whole.fold_task(synthetic_task_rows(task))
        assert merge_accumulators(parts).state_dict() == whole.state_dict()

    def test_empty_partition_parts_are_exact_noops(self):
        shape = dict(n_settings=2, n_replicates=2, methods=("greedy",),
                     objectives=("sum",), seed=11)
        tasks = synthetic_tasks(shape)
        whole = SweepAccumulator()
        for task in tasks:
            whole.fold_task(synthetic_task_rows(task))
        parts = [SweepAccumulator()]  # leading empty shard
        for task in tasks:
            part = SweepAccumulator()  # single-task shards
            part.fold_task(synthetic_task_rows(task))
            parts.append(part)
            parts.append(SweepAccumulator())  # interleaved empty shards
        assert merge_accumulators(parts).state_dict() == whole.state_dict()


@pytest.fixture(scope="module")
def tiny_campaign():
    """A 2-task real campaign definition (cheap: greedy + LP bound only)."""
    return dict(
        settings=sample_settings(2, rng=5, k_values=[3]),
        scenario=DEFAULT_SCENARIO,
        methods=("greedy",),
        objectives=("maxmin",),
        n_platforms=1,
        root=seed_sequence_of(5),
    )


def _plan(campaign, tmp_path, n_shards, row_sink=None):
    manifests = build_shard_manifests(
        campaign["settings"], campaign["scenario"], campaign["methods"],
        campaign["objectives"], campaign["n_platforms"], campaign["root"],
        n_shards=n_shards, shard_dir=tmp_path, row_sink=row_sink,
    )
    write_manifests(manifests, tmp_path)
    return manifests


class TestManifests:
    def test_round_trip_and_identity(self, tiny_campaign, tmp_path):
        manifests = _plan(tiny_campaign, tmp_path, 2)
        loaded = load_manifests(tmp_path)
        assert [m.to_dict() for m in loaded] == [m.to_dict() for m in manifests]
        assert loaded[0].fingerprint != loaded[1].fingerprint  # per-shard
        assert (
            loaded[0].campaign_fingerprint == loaded[1].campaign_fingerprint
        )

    def test_shard_tasks_slice_the_campaign_seed_derivation(
        self, tiny_campaign, tmp_path
    ):
        """Sharding must not change a task's id or seed: the shard
        slices are exactly the unsharded task list."""
        from repro.parallel.sweep import build_sweep_tasks

        manifests = _plan(tiny_campaign, tmp_path, 2)
        full = build_sweep_tasks(
            tiny_campaign["settings"], tiny_campaign["scenario"],
            tiny_campaign["methods"], tiny_campaign["objectives"],
            tiny_campaign["n_platforms"], tiny_campaign["root"],
        )
        sliced = [t for m in manifests for t in m.shard_tasks()]
        assert [t.task_id for t in sliced] == [t.task_id for t in full]
        for a, b in zip(sliced, full):
            assert a.seed.entropy == b.seed.entropy
            assert a.seed.spawn_key == b.seed.spawn_key

    def test_bad_manifest_files_are_refused(self, tmp_path):
        missing = tmp_path / "nope.manifest.json"
        with pytest.raises(ShardError, match="does not exist"):
            ShardManifest.load(missing)
        bad = tmp_path / "bad.manifest.json"
        bad.write_text("{not json")
        with pytest.raises(ShardError, match="not valid JSON"):
            ShardManifest.load(bad)
        wrong_kind = tmp_path / "kind.manifest.json"
        wrong_kind.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ShardError, match="not a shard manifest"):
            ShardManifest.load(wrong_kind)
        with pytest.raises(ShardError, match="no shard manifests"):
            load_manifests(tmp_path / "empty-dir")

    def test_invalid_ranges_are_refused(self, tiny_campaign, tmp_path):
        manifest = _plan(tiny_campaign, tmp_path, 2)[0]
        data = manifest.to_dict()
        data["task_stop"] = 99
        with pytest.raises(ShardError, match="task range"):
            ShardManifest.from_dict(data)
        data = manifest.to_dict()
        data["shard_index"] = 7
        with pytest.raises(ShardError, match="out of range"):
            ShardManifest.from_dict(data)


class TestMergeShardsOnDisk:
    """The disk-level merge path over real (tiny) shard runs."""

    @pytest.fixture(scope="class")
    def reference(self, tiny_campaign):
        from repro import Solver

        rows = Solver().sweep(
            tiny_campaign["settings"],
            scenario=tiny_campaign["scenario"],
            methods=tiny_campaign["methods"],
            objectives=tiny_campaign["objectives"],
            n_platforms=tiny_campaign["n_platforms"],
            rng=5,
        )
        return SweepAccumulator.from_rows(
            rows,
            methods=tiny_campaign["methods"],
            objectives=tiny_campaign["objectives"],
        )

    def _tables_sans_runtime(self, agg):
        tables = agg.tables()
        tables.pop("runtime_mean_by_k")
        return tables

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_shard_count_never_changes_a_bit(
        self, tiny_campaign, tmp_path, reference, n_shards
    ):
        """Covers single-task shards (n=2) and shard-count > task-count
        (n=5: three empty shards) against the serial reference."""
        manifests = _plan(tiny_campaign, tmp_path, n_shards)
        for manifest in manifests:
            run_shard(manifest)
        merged = merge_shards(manifests)
        assert merged.n_tasks == 2
        assert dumps(self._tables_sans_runtime(merged)) == dumps(
            self._tables_sans_runtime(reference)
        )

    def test_unrun_shard_is_refused(self, tiny_campaign, tmp_path):
        manifests = _plan(tiny_campaign, tmp_path, 2)
        run_shard(manifests[0])  # shard 1 never runs
        with pytest.raises(ShardError, match="no state sidecar"):
            merge_shards(manifests)

    def test_incomplete_shard_is_refused(self, tiny_campaign, tmp_path):
        manifests = _plan(tiny_campaign, tmp_path, 1)
        run_shard(manifests[0])
        state_path = manifests[0].state_path
        record = json.loads(state_path.read_text())
        record["state"]["n_folded"] = 1  # pretend the kill hit mid-run
        state_path.write_text(json.dumps(record))
        with pytest.raises(ShardError, match="incomplete"):
            merge_shards(manifests)

    def test_foreign_sidecar_is_refused(self, tiny_campaign, tmp_path):
        manifests = _plan(tiny_campaign, tmp_path, 1)
        run_shard(manifests[0])
        state_path = manifests[0].state_path
        record = json.loads(state_path.read_text())
        record["fingerprint"] = "someone-elses-campaign"
        state_path.write_text(json.dumps(record))
        with pytest.raises(ShardError, match="different shard/campaign"):
            merge_shards(manifests)

    def test_mixed_campaigns_and_gaps_are_refused(
        self, tiny_campaign, tmp_path
    ):
        manifests = _plan(tiny_campaign, tmp_path, 2)
        with pytest.raises(ShardError, match="zero shard manifests"):
            merge_shards([])
        with pytest.raises(ShardError, match="covered by no shard"):
            merge_shards(manifests[:1])  # missing shard 1's task range
        foreign = ShardManifest.from_dict(
            {**manifests[1].to_dict(), "campaign_fingerprint": "other"}
        )
        with pytest.raises(ShardError, match="different campaign"):
            merge_shards([manifests[0], foreign])
