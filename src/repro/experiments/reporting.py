"""Shared experiment-result container and plain-text table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """One regenerated paper artifact."""

    experiment_id: str
    title: str
    paper_reference: str
    #: Section name -> rendered plain-text table.
    sections: Dict[str, str] = field(default_factory=dict)
    #: Structured data for programmatic consumers (benchmarks, tests).
    data: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        header = f"=== {self.experiment_id}: {self.title} ({self.paper_reference}) ==="
        parts = [header]
        for name, text in self.sections.items():
            parts.append(f"--- {name} ---")
            parts.append(text)
        return "\n\n".join(parts)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    min_width: int = 10,
) -> str:
    """Fixed-width plain-text table with a left-aligned first column."""
    if not rows:
        return " | ".join(headers)
    widths: List[int] = []
    columns = len(headers)
    for col in range(columns):
        cells = [str(headers[col])] + [str(row[col]) for row in rows]
        widths.append(max(min_width if col else 12, max(len(c) for c in cells)))

    def fmt(cells: Sequence[Any]) -> str:
        out = []
        for col, cell in enumerate(cells):
            text = str(cell)
            out.append(text.ljust(widths[col]) if col == 0 else text.rjust(widths[col]))
        return "  ".join(out)

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def ascii_stacked_bars(
    series: Dict[str, Dict[str, float]],
    width: int = 60,
    symbols: str = "#@*+=~o.",
) -> str:
    """Render stacked horizontal bars (Figure 2(a)/(b) style).

    ``series`` maps bar label -> {segment label: value}; all bars share
    one scale.  Returns the chart plus a symbol legend.
    """
    if not series:
        return "(empty)"
    segment_names: List[str] = []
    for segments in series.values():
        for name in segments:
            if name not in segment_names:
                segment_names.append(name)
    if len(segment_names) > len(symbols):
        raise ValueError(
            f"too many segments ({len(segment_names)}) for the symbol set"
        )
    scale = max(sum(segments.values()) for segments in series.values())
    if scale <= 0:
        raise ValueError("bars must have positive totals")
    label_width = max(len(label) for label in series)
    lines = []
    for label, segments in series.items():
        bar = ""
        for name, symbol in zip(segment_names, symbols):
            units = round(segments.get(name, 0.0) / scale * width)
            bar += symbol * units
        total = sum(segments.values())
        lines.append(f"{label.ljust(label_width)}  {bar} {total:,.0f}")
    legend = "  ".join(
        f"{symbol}={name}" for name, symbol in zip(segment_names, symbols)
    )
    return "\n".join(lines) + "\n" + legend


def percent(value: float) -> str:
    """Render a ratio as the paper's percentage style (``167%``)."""
    return f"{value * 100:.0f}%"


def dollars(value: float) -> str:
    return f"${value:,.0f}"
