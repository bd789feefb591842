"""Tests for repro.util.tables, ascii_plot and timing."""

import time

import pytest

from repro.util.ascii_plot import ascii_series_plot
from repro.util.tables import TextTable
from repro.obs import Timer, timed


class TestTextTable:
    def test_basic_render(self):
        t = TextTable(["a", "b"])
        t.add_row([1, 2.5])
        out = t.render()
        assert "a" in out and "2.500" in out
        assert out.count("\n") == 2  # header + rule + one row

    def test_column_width_adapts(self):
        t = TextTable(["x"])
        t.add_row(["a-very-long-cell"])
        assert "a-very-long-cell" in t.render()

    def test_row_length_checked(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_custom_float_format(self):
        t = TextTable(["v"], float_fmt=".1f")
        t.add_row([3.14159])
        assert "3.1" in t.render()
        assert "3.14" not in t.render()


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        out = ascii_series_plot({"s1": [(0, 0), (1, 1)], "s2": [(0, 1), (1, 0)]})
        assert "o=s1" in out and "x=s2" in out

    def test_title_rendered(self):
        out = ascii_series_plot({"s": [(0, 1)]}, title="hello")
        assert out.startswith("hello")

    def test_log_scale_drops_nonpositive(self):
        out = ascii_series_plot({"s": [(0, 0.0), (1, 10.0)]}, logy=True)
        assert "log10(y)" in out

    def test_empty_series(self):
        out = ascii_series_plot({}, title="t")
        assert "no data" in out

    def test_constant_series_does_not_crash(self):
        out = ascii_series_plot({"flat": [(0, 5.0), (10, 5.0)]})
        assert "flat" in out


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t.measure():
            time.sleep(0.001)
        with t.measure():
            pass
        assert t.count == 2
        assert t.total >= 0.001
        assert len(t.laps) == 2

    def test_mean_empty_is_zero(self):
        assert Timer().mean == 0.0

    def test_reset(self):
        t = Timer()
        with t.measure():
            pass
        t.reset()
        assert t.count == 0 and t.total == 0.0 and not t.laps

    def test_timed_contextmanager(self):
        sink = {}
        with timed(sink, "block"):
            pass
        with timed(sink, "block"):
            pass
        assert sink["block"] >= 0.0
