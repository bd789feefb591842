"""Unit tests of the streaming-aggregation accumulator algebra.

Three laws are pinned here, per reducer and for the composite
:class:`~repro.parallel.stream.SweepAccumulator`:

* **merge associativity** — ``(a + b) + c`` equals ``a + (b + c)``:
  exactly for the integer/extrema reducers, to tight tolerance for the
  Welford moments (float merge order rounds differently);
* **identity** — merging with an empty accumulator is an exact bitwise
  no-op, in both directions (the property that makes empty chunks
  harmless);
* **numerical agreement** — Welford one-pass mean/variance matches
  numpy's two-pass reference to tight relative tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.stream import (
    CountAccumulator,
    MeanVarAccumulator,
    MinMaxAccumulator,
    PairRatioAccumulator,
    QuantileAccumulator,
    RatioBoundAccumulator,
    StatAccumulator,
    SweepAccumulator,
    iter_task_groups,
)
from repro.util.errors import SolverError

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
float_lists = st.lists(floats, max_size=30)


def welford_of(xs) -> MeanVarAccumulator:
    acc = MeanVarAccumulator()
    for x in xs:
        acc.update(x)
    return acc


def assert_states_equal(a, b):
    """Bitwise equality of two accumulators via their state dicts."""
    assert a.state_dict() == b.state_dict()


class TestMeanVar:
    @given(xs=st.lists(floats, min_size=1, max_size=200))
    def test_agrees_with_numpy_two_pass(self, xs):
        acc = welford_of(xs)
        ref = np.asarray(xs, dtype=float)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert acc.count == len(xs)
        assert acc.mean == pytest.approx(float(ref.mean()), rel=1e-12, abs=1e-12 * scale)
        assert acc.variance == pytest.approx(
            float(ref.var()), rel=1e-9, abs=1e-9 * scale * scale
        )

    @given(a=float_lists, b=float_lists, c=float_lists)
    def test_merge_associative(self, a, b, c):
        left = welford_of(a)
        left.merge(welford_of(b))
        left.merge(welford_of(c))
        bc = welford_of(b)
        bc.merge(welford_of(c))
        right = welford_of(a)
        right.merge(bc)
        assert left.count == right.count
        scale = max(1.0, abs(left.mean), abs(right.mean))
        assert left.mean == pytest.approx(right.mean, rel=1e-9, abs=1e-9 * scale)
        assert left.m2 == pytest.approx(right.m2, rel=1e-6, abs=1e-6 * scale**2)

    @given(xs=float_lists)
    def test_empty_is_exact_identity_both_sides(self, xs):
        full = welford_of(xs)
        left = welford_of(xs)
        left.merge(MeanVarAccumulator())
        assert_states_equal(left, full)
        right = MeanVarAccumulator()
        right.merge(full)
        assert_states_equal(right, full)

    @given(a=float_lists, b=float_lists)
    def test_merge_matches_concatenation(self, a, b):
        merged = welford_of(a)
        merged.merge(welford_of(b))
        ref = np.asarray(a + b, dtype=float)
        assert merged.count == len(ref)
        if len(ref):
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert merged.mean == pytest.approx(
                float(ref.mean()), rel=1e-10, abs=1e-10 * scale
            )
            assert merged.variance == pytest.approx(
                float(ref.var()), rel=1e-8, abs=1e-8 * scale * scale
            )

    def test_empty_statistics_are_nan(self):
        acc = MeanVarAccumulator()
        assert math.isnan(acc.mean_or_nan()) and math.isnan(acc.variance)

    @given(xs=float_lists)
    def test_state_round_trips_bitwise_through_json(self, xs):
        acc = welford_of(xs)
        restored = MeanVarAccumulator.from_state(
            json.loads(json.dumps(acc.state_dict()))
        )
        assert_states_equal(restored, acc)


class TestSimpleReducers:
    @given(a=float_lists, b=float_lists, c=float_lists)
    def test_minmax_merge_associative_and_exact(self, a, b, c):
        def mm(xs):
            acc = MinMaxAccumulator()
            for x in xs:
                acc.update(x)
            return acc

        left = mm(a)
        left.merge(mm(b))
        left.merge(mm(c))
        bc = mm(b)
        bc.merge(mm(c))
        right = mm(a)
        right.merge(bc)
        assert_states_equal(left, right)
        assert_states_equal(left, mm(a + b + c))

    def test_minmax_identity(self):
        acc = MinMaxAccumulator()
        acc.update(3.0)
        acc.merge(MinMaxAccumulator())
        assert (acc.vmin, acc.vmax) == (3.0, 3.0)
        assert MinMaxAccumulator().state_dict() == {
            "vmin": math.inf,
            "vmax": -math.inf,
        }

    @given(
        hits=st.lists(st.booleans(), max_size=40),
        split=st.integers(min_value=0, max_value=40),
    )
    def test_count_merge_is_exact_addition(self, hits, split):
        split = min(split, len(hits))

        def count(bs):
            acc = CountAccumulator()
            for b in bs:
                acc.update(b)
            return acc

        merged = count(hits[:split])
        merged.merge(count(hits[split:]))
        whole = count(hits)
        assert (merged.total, merged.hits) == (whole.total, whole.hits)

    def test_count_fraction(self):
        acc = CountAccumulator()
        assert math.isnan(acc.fraction)
        for hit in (True, False, False, True):
            acc.update(hit)
        assert acc.fraction == 0.5

    def test_stat_accumulator_composes(self):
        acc = StatAccumulator()
        for x in (1.0, 5.0, 3.0):
            acc.update(x)
        assert acc.count == 3
        assert acc.mean == pytest.approx(3.0)
        assert (acc.extrema.vmin, acc.extrema.vmax) == (1.0, 5.0)
        restored = StatAccumulator.from_state(acc.state_dict())
        assert_states_equal(restored, acc)


class TestRatioReducers:
    def test_ratio_bound_tracks_zero_fraction(self):
        acc = RatioBoundAccumulator()
        acc.update(0.5, value=10.0)
        acc.update(0.0, value=0.0)
        acc.update(1.0, value=5.0)
        acc.update(0.0, value=1e-12)  # below ZERO_TOL counts as zero
        stats = acc.stats()
        assert stats["zero_fraction"] == 0.5
        assert stats["mean_ratio"] == pytest.approx(0.375)

    def test_pair_ratio_mirrors_pairwise_value_ratio_semantics(self):
        acc = PairRatioAccumulator()
        acc.update(4.0, 2.0)   # finite ratio 2.0
        acc.update(0.0, 0.0)   # 0/0 -> skipped entirely
        acc.update(3.0, 0.0)   # inf -> excluded from mean, counted
        acc.update(1.0, 2.0)   # finite ratio 0.5
        assert acc.infinities == 1
        assert acc.finite.count == 2
        assert acc.mean == pytest.approx(1.25)

    def test_pair_ratio_empty_mean_is_nan(self):
        assert math.isnan(PairRatioAccumulator().mean)

    def test_merge_identity_exact(self):
        acc = PairRatioAccumulator()
        acc.update(4.0, 2.0)
        before = acc.state_dict()
        acc.merge(PairRatioAccumulator())
        assert acc.state_dict() == before


class TestQuantileSketch:
    """The fixed-bin quantile sketch: exact counts, deterministic reads."""

    ratio_floats = st.floats(
        min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False
    )

    def sketch_of(self, xs) -> QuantileAccumulator:
        acc = QuantileAccumulator()
        for x in xs:
            acc.update(x)
        return acc

    @given(a=st.lists(ratio_floats), b=st.lists(ratio_floats),
           c=st.lists(ratio_floats))
    def test_merge_is_exactly_associative_and_order_free(self, a, b, c):
        left = self.sketch_of(a)
        left.merge(self.sketch_of(b))
        left.merge(self.sketch_of(c))
        bc = self.sketch_of(b)
        bc.merge(self.sketch_of(c))
        right = self.sketch_of(a)
        right.merge(bc)
        assert left.state_dict() == right.state_dict()
        assert left.state_dict() == self.sketch_of(a + b + c).state_dict()

    @given(xs=st.lists(ratio_floats, min_size=1, max_size=200),
           q=st.sampled_from([0.0, 0.25, 0.5, 0.95, 1.0]))
    def test_quantile_within_bin_resolution_of_sorted_reference(self, xs, q):
        acc = self.sketch_of(xs)
        rank = max(1, math.ceil(q * len(xs)))
        exact = sorted(xs)[rank - 1]
        width = (acc.hi - acc.lo) / acc.n_bins
        assert abs(acc.quantile(q) - exact) <= width

    def test_out_of_range_and_nan_handling(self):
        acc = QuantileAccumulator(lo=0.0, hi=1.0, n_bins=10)
        for x in (-5.0, 0.5, 2.0, math.inf, math.nan):
            acc.update(x)
        assert (acc.n_under, acc.n_over, acc.n_nan) == (1, 2, 1)
        assert acc.count == 4  # NaN excluded from ranking
        assert acc.quantile(0.0) == 0.0   # clamped to lo
        assert acc.quantile(1.0) == 1.0   # clamped to hi

    def test_empty_quantiles_are_nan(self):
        assert math.isnan(QuantileAccumulator().median())

    def test_invalid_quantile_and_mismatched_merge_refused(self):
        acc = QuantileAccumulator()
        with pytest.raises(SolverError, match="quantile"):
            acc.quantile(1.5)
        with pytest.raises(SolverError, match="different bins"):
            acc.merge(QuantileAccumulator(n_bins=8))
        with pytest.raises(SolverError, match="lo < hi"):
            QuantileAccumulator(lo=1.0, hi=1.0)

    @given(xs=st.lists(ratio_floats, max_size=50))
    def test_state_round_trips_bitwise_through_json(self, xs):
        acc = self.sketch_of(xs)
        restored = QuantileAccumulator.from_state(
            json.loads(json.dumps(acc.state_dict()))
        )
        assert restored.state_dict() == acc.state_dict()

    def test_ratio_bound_exposes_median_and_p95(self):
        acc = RatioBoundAccumulator()
        for ratio in (0.1, 0.5, 0.9, 0.95, 1.0):
            acc.update(ratio, value=ratio)
        stats = acc.stats()
        width = 2.0 / 256
        assert abs(stats["median_ratio"] - 0.9) <= width
        assert abs(stats["p95_ratio"] - 1.0) <= width


def _fake_row(setting, replicate, objective, method, value, lp_value,
              runtime=0.25, n_lp_solves=1):
    from repro.experiments.runner import ExperimentRow

    return ExperimentRow(
        setting=setting, replicate=replicate, objective=objective,
        method=method, value=value, lp_value=lp_value, runtime=runtime,
        n_lp_solves=n_lp_solves,
    )


def _fake_task(setting, replicate, methods=("greedy", "lprg"),
               objectives=("sum",), base=100.0):
    """One replicate's row list, shaped exactly like run_replicate's."""
    rows = []
    for oi, objective in enumerate(objectives):
        lp = base + 10.0 * oi
        rows.append(_fake_row(setting, replicate, objective, "lp", lp, lp))
        for mi, method in enumerate(methods):
            rows.append(
                _fake_row(setting, replicate, objective, method,
                          lp * (0.5 + 0.1 * mi), lp)
            )
    return rows


@pytest.fixture
def settings_pair():
    from repro.experiments import sample_settings

    return sample_settings(2, rng=0, k_values=[4, 6])


class TestSweepAccumulator:
    def test_matches_classic_aggregates_to_tolerance(self, settings_pair):
        """Welford tables vs the np.mean reference on real sweep rows."""
        from repro import Solver
        from repro.experiments.aggregate import (
            headline_ratios,
            lpr_failure_stats,
            mean_ratio_by_k,
            runtime_by_k,
        )

        methods, objectives = ("greedy", "lpr", "lprg"), ("maxmin", "sum")
        rows = Solver().sweep(
            settings_pair, methods=methods, objectives=objectives,
            n_platforms=2, rng=3,
        )
        agg = SweepAccumulator.from_rows(
            rows, methods=methods, objectives=objectives
        )
        for method in methods:
            for objective in objectives:
                classic = mean_ratio_by_k(rows, method, objective)
                streamed = agg.mean_ratio_by_k(method, objective)
                assert [k for k, _ in classic] == [k for k, _ in streamed]
                assert [v for _, v in streamed] == pytest.approx(
                    [v for _, v in classic], rel=1e-12
                )
                classic_rt = runtime_by_k(rows, method, objective)
                streamed_rt = agg.runtime_by_k(method, objective)
                assert [v for _, v in streamed_rt] == pytest.approx(
                    [v for _, v in classic_rt], rel=1e-12
                )
        classic_head = headline_ratios(rows)
        streamed_head = agg.headline_ratios()
        for objective in ("maxmin", "sum"):
            assert streamed_head[objective] == pytest.approx(
                classic_head[objective], rel=1e-12
            )
        classic_fail = lpr_failure_stats(rows)
        streamed_fail = agg.lpr_failure_stats()
        assert streamed_fail["mean_ratio"] == pytest.approx(
            classic_fail["mean_ratio"], rel=1e-12
        )
        assert streamed_fail["zero_fraction"] == classic_fail["zero_fraction"]

    def test_merge_equals_sequential_fold(self, settings_pair):
        tasks = [
            _fake_task(s, rep, base=100.0 + 7 * i)
            for i, s in enumerate(settings_pair)
            for rep in range(3)
        ]
        whole = SweepAccumulator()
        for task in tasks:
            whole.fold_task(task)
        left = SweepAccumulator()
        for task in tasks[:2]:
            left.fold_task(task)
        right = SweepAccumulator()
        for task in tasks[2:]:
            right.fold_task(task)
        left.merge(right)
        assert left.n_rows == whole.n_rows
        assert left.n_tasks == whole.n_tasks
        lt, wt = left.tables(), whole.tables()
        assert lt["mean_ratio_by_k"].keys() == wt["mean_ratio_by_k"].keys()
        for key in wt["mean_ratio_by_k"]:
            for (k1, v1), (k2, v2) in zip(
                lt["mean_ratio_by_k"][key], wt["mean_ratio_by_k"][key]
            ):
                assert k1 == k2 and v1 == pytest.approx(v2, rel=1e-12)

    def test_merge_with_empty_is_exact_identity(self, settings_pair):
        agg = SweepAccumulator()
        agg.fold_task(_fake_task(settings_pair[0], 0))
        before = agg.state_dict()
        agg.merge(SweepAccumulator())
        assert agg.state_dict() == before
        fresh = SweepAccumulator()
        fresh.merge(agg)
        assert fresh.state_dict() == before

    def test_state_round_trips_bitwise(self, settings_pair):
        agg = SweepAccumulator()
        for rep in range(2):
            agg.fold_task(_fake_task(settings_pair[0], rep))
        restored = SweepAccumulator.from_state(
            json.loads(json.dumps(agg.state_dict()))
        )
        assert restored.state_dict() == agg.state_dict()
        assert restored.tables() == agg.tables()

    def test_state_version_guard(self):
        state = SweepAccumulator().state_dict()
        state["version"] = 999
        with pytest.raises(SolverError, match="state version"):
            SweepAccumulator.from_state(state)

    def test_untracked_pair_is_refused(self, settings_pair):
        agg = SweepAccumulator()
        agg.fold_task(_fake_task(settings_pair[0], 0))
        with pytest.raises(SolverError, match="not tracked"):
            agg.pairwise_value_ratio("lpr", "greedy", "sum")

    def test_missing_method_gives_nan_failure_stats(self):
        """The absent-method read-out carries the same keys (all NaN) as
        a populated one — and as the classic aggregate function."""
        from repro.experiments.aggregate import lpr_failure_stats

        stats = SweepAccumulator().method_failure_stats("lpr")
        populated = RatioBoundAccumulator()
        populated.update(0.5, value=1.0)
        assert stats.keys() == populated.stats().keys()
        assert stats.keys() == lpr_failure_stats([]).keys()
        for value in stats.values():
            assert math.isnan(value)


class TestTaskGrouping:
    def test_arithmetic_chunking_checks_divisibility(self, settings_pair):
        rows = _fake_task(settings_pair[0], 0)
        with pytest.raises(SolverError, match="not a multiple"):
            list(iter_task_groups(rows, methods=("a", "b", "c"),
                                  objectives=("sum", "maxmin")))

    def test_boundary_detection_matches_arithmetic(self, settings_pair):
        methods, objectives = ("greedy", "lprg"), ("maxmin", "sum")
        tasks = [
            _fake_task(s, rep, methods=methods, objectives=objectives)
            for s in settings_pair
            for rep in range(2)
        ]
        flat = [row for task in tasks for row in task]
        by_marker = list(iter_task_groups(flat))
        by_arith = list(
            iter_task_groups(flat, methods=methods, objectives=objectives)
        )
        assert by_marker == by_arith == tasks

    def test_empty_rows_yield_nothing(self):
        assert list(iter_task_groups([])) == []
