"""Tests for the Section-6 experiment harness."""

import numpy as np
import pytest

from repro.experiments import (
    PAPER_GRID,
    Scenario,
    Setting,
    figure5,
    figure6,
    figure7,
    grid_size,
    headline_ratios,
    iter_grid,
    lpr_failure_stats,
    mean_ratio_by_k,
    render_figure,
    run_setting,
    run_sweep,
    sample_settings,
    spec_for,
)
from repro.experiments.aggregate import pairwise_value_ratio, runtime_by_k
from repro.experiments.config import DEFAULT_SCENARIO, LITERAL_SCENARIO, payoffs_for


def _setting(k=5, **overrides):
    defaults = dict(
        k=k, connectivity=0.6, heterogeneity=0.4, mean_g=250.0,
        mean_bw=30.0, mean_maxcon=15.0,
    )
    defaults.update(overrides)
    return Setting(**defaults)


class TestGrid:
    def test_table1_dimensions(self):
        assert PAPER_GRID["K"] == tuple(range(5, 96, 10))
        assert len(PAPER_GRID["connectivity"]) == 8
        assert len(PAPER_GRID["heterogeneity"]) == 4
        assert len(PAPER_GRID["mean_g"]) == 4
        assert len(PAPER_GRID["mean_bw"]) == 9
        assert len(PAPER_GRID["mean_maxcon"]) == 10

    def test_grid_size(self):
        assert grid_size() == 10 * 8 * 4 * 4 * 9 * 10

    def test_iter_grid_first_element(self):
        first = next(iter_grid())
        assert first.k == 5 and first.connectivity == 0.1

    def test_sample_settings_stratified(self):
        settings = sample_settings(10, rng=0, k_values=[5, 15])
        ks = [s.k for s in settings]
        assert ks == [5, 15] * 5

    def test_sample_settings_values_from_grid(self):
        for s in sample_settings(20, rng=1):
            assert s.connectivity in PAPER_GRID["connectivity"]
            assert s.mean_g in PAPER_GRID["mean_g"]

    def test_spec_for_applies_scenario(self):
        setting = _setting(heterogeneity=0.6)
        spec = spec_for(setting, DEFAULT_SCENARIO)
        assert spec.speed_heterogeneity == 0.6
        literal = spec_for(setting, LITERAL_SCENARIO)
        assert literal.speed_heterogeneity == 0.0

    def test_payoffs_for_band(self):
        setting = _setting(k=50)
        payoffs = payoffs_for(setting, DEFAULT_SCENARIO, rng=0)
        assert payoffs.shape == (50,)
        assert np.all(payoffs >= 0.8) and np.all(payoffs <= 1.2)
        literal = payoffs_for(setting, LITERAL_SCENARIO, rng=0)
        assert np.all(literal == 1.0)

    def test_setting_as_dict(self):
        d = _setting().as_dict()
        assert d["K"] == 5 and "mean_bw" in d


class TestRunner:
    def test_rows_structure(self):
        rows = run_setting(
            _setting(), methods=("greedy",), objectives=("maxmin",),
            n_platforms=2, rng=0,
        )
        # 2 platforms x (lp + greedy) x 1 objective
        assert len(rows) == 4
        methods = {r.method for r in rows}
        assert methods == {"lp", "greedy"}

    def test_lp_bound_attached_to_all_rows(self):
        rows = run_setting(
            _setting(), methods=("greedy", "lpr"), objectives=("sum",),
            n_platforms=1, rng=1,
        )
        lp_values = {r.lp_value for r in rows}
        assert len(lp_values) == 1
        for r in rows:
            assert r.ratio <= 1.0 + 1e-6

    def test_deterministic_given_seed(self):
        a = run_setting(_setting(), n_platforms=1, rng=5)
        b = run_setting(_setting(), n_platforms=1, rng=5)
        assert [r.value for r in a] == [r.value for r in b]

    def test_literal_scenario_is_trivial(self):
        """The paper-literal setup (all speeds 100, payoffs 1) is solved
        optimally by every heuristic — the observation that forced our
        calibrated scenario (DESIGN.md note 7 / EXPERIMENTS.md)."""
        rows = run_setting(
            _setting(k=6), scenario=LITERAL_SCENARIO,
            methods=("greedy", "lprg"), objectives=("maxmin", "sum"),
            n_platforms=2, rng=3,
        )
        for r in rows:
            assert r.ratio == pytest.approx(1.0, abs=1e-6)

    def test_run_sweep_concatenates(self):
        rows = run_sweep(
            [_setting(), _setting(k=7)],
            methods=("greedy",), objectives=("maxmin",), n_platforms=1, rng=0,
        )
        assert {r.setting.k for r in rows} == {5, 7}


class TestAggregates:
    @pytest.fixture(scope="class")
    def rows(self):
        settings = [_setting(k=4), _setting(k=6)]
        return run_sweep(
            settings, methods=("greedy", "lpr", "lprg"),
            objectives=("maxmin", "sum"), n_platforms=2, rng=7,
        )

    def test_mean_ratio_by_k(self, rows):
        series = mean_ratio_by_k(rows, "lprg", "maxmin")
        assert [k for k, _ in series] == [4, 6]
        assert all(0.0 <= v <= 1.0 + 1e-6 for _, v in series)

    def test_headline_ratios_dominate_one(self, rows):
        ratios = headline_ratios(rows)
        # LPRG >= LPR always, and in practice >= G on average here.
        assert ratios["maxmin"] > 0.0
        assert ratios["sum"] > 0.0

    def test_lpr_failure_stats(self, rows):
        stats = lpr_failure_stats(rows)
        assert 0.0 <= stats["zero_fraction"] <= 1.0
        assert stats["mean_ratio"] <= 1.0 + 1e-6

    def test_pairwise_requires_matching_rows(self, rows):
        with pytest.raises(ValueError):
            pairwise_value_ratio(rows, "lprg", "milp", "maxmin")

    def test_runtime_by_k(self, rows):
        series = runtime_by_k(rows, "lprg", "maxmin")
        assert len(series) == 2 and all(v >= 0 for _, v in series)


class TestFigures:
    def test_figure5_smoke(self):
        fig = figure5(k_values=(4, 6), settings_per_k=1, platforms_per_setting=1, rng=0)
        assert set(fig.series) == {
            "MAXMIN(LPRG)/LP", "SUM(LPRG)/LP", "MAXMIN(GREEDY)/LP", "SUM(GREEDY)/LP",
        }
        assert "headline_lprg_over_g" in fig.notes
        text = render_figure(fig)
        assert "Figure 5" in text and "MAXMIN(LPRG)/LP" in text

    def test_figure6_smoke(self):
        fig = figure6(k_values=(4,), settings_per_k=1, platforms_per_setting=1, rng=0)
        assert "MAXMIN(LPRR)/LP" in fig.series
        assert fig.notes["n_topologies"] == 1

    def test_figure7_smoke(self):
        fig = figure7(k_values=(4, 5), settings_per_k=1, platforms_per_setting=1, rng=0)
        assert fig.logy
        assert "GREEDY" in fig.series and "LPRR" in fig.series
        assert "lprr_over_lprg" in fig.notes
        text = render_figure(fig)
        assert "log10(y)" in text

    def test_figures_read_stream_from_the_solver(self):
        from repro.api import Solver, SolverConfig

        kwargs = dict(k_values=(4, 6), settings_per_k=1, platforms_per_setting=1)
        in_memory = figure5(rng=0, **kwargs)
        streamed = figure5(rng=0, solver=Solver(SolverConfig(stream=True)), **kwargs)
        assert in_memory.rows and streamed.rows == []
        assert streamed.series.keys() == in_memory.series.keys()
        for label, points in in_memory.series.items():
            assert [k for k, _ in streamed.series[label]] == [k for k, _ in points]
            np.testing.assert_allclose(
                [v for _, v in streamed.series[label]], [v for _, v in points],
                rtol=1e-12,
            )

    def test_figure7_without_lprr(self):
        fig = figure7(
            k_values=(4,), settings_per_k=1, platforms_per_setting=1,
            include_lprr=False, rng=0,
        )
        assert "LPRR" not in fig.series
