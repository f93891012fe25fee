"""Paper-vs-measured comparison and reporting.

Compares any regenerated ``{row: {col: value}}`` matrix against the
paper's reference data and renders the per-cell delta tables used in
EXPERIMENTS.md and the validation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from repro.experiments.reporting import format_table


@dataclass(frozen=True)
class CellDelta:
    """One compared cell."""

    row: str
    column: str
    paper: float
    measured: float

    @property
    def absolute_delta(self) -> float:
        return self.measured - self.paper

    def within(self, absolute: float) -> bool:
        return abs(self.absolute_delta) <= absolute


def compare_matrix(
    paper: Mapping[str, Mapping[str, float]],
    measured: Mapping[str, Mapping[str, float]],
) -> List[CellDelta]:
    """Pair up every cell present in both matrices."""
    deltas: List[CellDelta] = []
    for row, columns in paper.items():
        measured_row = measured.get(row)
        if measured_row is None:
            continue
        for column, value in columns.items():
            if column in measured_row:
                deltas.append(
                    CellDelta(
                        row=row,
                        column=column,
                        paper=value,
                        measured=measured_row[column],
                    )
                )
    return deltas


def render_comparison(
    deltas: List[CellDelta], percent: bool = True, band: float = 0.16
) -> str:
    """Plain-text per-cell report with an in/out-of-band flag."""
    def fmt(v: float) -> str:
        return f"{v * 100:.0f}%" if percent else f"{v:.3f}"

    rows = [
        (
            f"{d.row}/{d.column}",
            fmt(d.paper),
            fmt(d.measured),
            f"{d.absolute_delta * 100:+.0f}pp" if percent else f"{d.absolute_delta:+.3f}",
            "ok" if d.within(band) else "DEVIATES",
        )
        for d in deltas
    ]
    summary_line = summarize(deltas, band)
    table = format_table(["Cell", "Paper", "Measured", "Delta", "Band"], rows)
    return f"{table}\n\n{summary_line}"


def summarize(deltas: List[CellDelta], band: float = 0.16) -> str:
    """One-line reproduction-quality summary."""
    if not deltas:
        return "no overlapping cells to compare"
    inside = sum(1 for d in deltas if d.within(band))
    mean_abs = sum(abs(d.absolute_delta) for d in deltas) / len(deltas)
    return (
        f"{inside}/{len(deltas)} cells within +/-{band * 100:.0f}pp of the "
        f"paper; mean absolute delta {mean_abs * 100:.1f}pp"
    )
