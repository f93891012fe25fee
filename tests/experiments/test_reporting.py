"""Tests of the shared reporting helpers."""

import pytest

from repro.experiments.reporting import (
    ascii_stacked_bars,
    dollars,
    format_table,
    percent,
)


class TestFormatters:
    def test_dollars_and_watts(self):
        assert dollars(1234.5) == "$1,234"

    def test_percent_rounds(self):
        assert percent(0.954) == "95%"
        assert percent(2.0) == "200%"


class TestAsciiStackedBars:
    def test_bars_scale_to_largest_total(self):
        chart = ascii_stacked_bars(
            {"big": {"a": 100.0}, "small": {"a": 50.0}}, width=10
        )
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_legend_lists_segments_in_order(self):
        chart = ascii_stacked_bars({"x": {"cpu": 1.0, "mem": 2.0}})
        assert chart.splitlines()[-1] == "#=cpu  @=mem"

    def test_missing_segments_render_empty(self):
        chart = ascii_stacked_bars(
            {"x": {"a": 5.0, "b": 5.0}, "y": {"a": 10.0}}, width=10
        )
        y_line = chart.splitlines()[1]
        assert "@" not in y_line

    def test_totals_shown(self):
        chart = ascii_stacked_bars({"x": {"a": 1234.0}})
        assert "1,234" in chart

    def test_validation(self):
        assert ascii_stacked_bars({}) == "(empty)"
        with pytest.raises(ValueError):
            ascii_stacked_bars({"x": {"a": 0.0}})
        too_many = {f"s{i}": 1.0 for i in range(20)}
        with pytest.raises(ValueError):
            ascii_stacked_bars({"x": too_many})


class TestFormatTable:
    def test_empty_rows(self):
        assert format_table(["A", "B"], []) == "A | B"

    def test_column_alignment(self):
        text = format_table(["Name", "Val"], [("aa", 1), ("b", 22)])
        lines = text.splitlines()
        # First column left-aligned, second right-aligned.
        assert lines[2].startswith("aa")
        assert lines[3].startswith("b ")
        assert lines[2].rstrip().endswith("1")
