"""Tests of the paper-vs-measured comparison machinery."""

import pytest

from repro.validation.compare import (
    CellDelta,
    compare_matrix,
    render_comparison,
    summarize,
)
from repro.validation.reference import (
    PAPER_FIGURE2C_PERF,
    PAPER_FIGURE5_TCO,
    PAPER_TABLE2,
)


class TestCellDelta:
    def test_deltas(self):
        d = CellDelta(row="r", column="c", paper=0.5, measured=0.6)
        assert d.absolute_delta == pytest.approx(0.1)
        assert d.within(0.1)
        assert not d.within(0.05)


class TestCompareMatrix:
    def test_pairs_overlapping_cells(self):
        paper = {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 3.0}}
        measured = {"a": {"x": 1.1}, "b": {"x": 2.9, "z": 9.0}}
        deltas = compare_matrix(paper, measured)
        assert {(d.row, d.column) for d in deltas} == {("a", "x"), ("b", "x")}

    def test_empty_overlap(self):
        assert compare_matrix({"a": {"x": 1.0}}, {"b": {"x": 1.0}}) == []

    def test_perfect_match_summary(self):
        deltas = compare_matrix(PAPER_FIGURE2C_PERF, PAPER_FIGURE2C_PERF)
        assert all(d.absolute_delta == 0 for d in deltas)
        assert summarize(deltas).startswith(f"{len(deltas)}/{len(deltas)}")


class TestRendering:
    def test_report_flags_deviations(self):
        deltas = [
            CellDelta("a", "x", 0.5, 0.52),
            CellDelta("a", "y", 0.5, 0.9),
        ]
        text = render_comparison(deltas, band=0.1)
        assert "ok" in text and "DEVIATES" in text
        assert "1/2 cells" in text

    def test_empty_summary(self):
        assert "no overlapping" in summarize([])


class TestReferenceDataSanity:
    def test_table2_covers_all_systems(self):
        assert set(PAPER_TABLE2) == {"srvr1", "srvr2", "desk", "mobl", "emb1", "emb2"}

    def test_figure2c_rows_and_columns(self):
        assert set(PAPER_FIGURE2C_PERF) == {
            "websearch", "webmail", "ytube", "mapred-wc", "mapred-wr", "HMean",
        }
        for row in PAPER_FIGURE2C_PERF.values():
            assert set(row) == {"srvr2", "desk", "mobl", "emb1", "emb2"}
            assert all(0 < v <= 1.0 for v in row.values())

    def test_figure5_headline(self):
        assert PAPER_FIGURE5_TCO["HMean"]["N1"] == pytest.approx(1.5)
        assert PAPER_FIGURE5_TCO["HMean"]["N2"] == pytest.approx(2.0)
