"""Performance/cost/power metrics (paper section 2.2).

The key metric for internet-sector environments is sustainable performance
per total cost of ownership (Perf/TCO-$).  The paper also reports
performance per watt (Perf/W), per infrastructure dollar (Perf/Inf-$), and
per power-and-cooling dollar (Perf/P&C-$).  Averages across benchmarks use
the harmonic mean of throughputs and reciprocal execution times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean; the paper's cross-benchmark aggregate.

    Raises ``ValueError`` on an empty input or non-positive values (a
    harmonic mean of a zero throughput is undefined).
    """
    items = list(values)
    if not items:
        raise ValueError("harmonic mean of an empty sequence")
    if any(v <= 0 for v in items):
        raise ValueError("harmonic mean requires positive values")
    return len(items) / sum(1.0 / v for v in items)


@dataclass(frozen=True)
class EfficiencyMetrics:
    """All four paper metrics for one (system, benchmark) pair."""

    system: str
    benchmark: str
    #: Performance score: RPS, or 1/execution-time for batch jobs.
    performance: float
    #: Average consumed power, watts (including per-server switch share).
    power_w: float
    #: Infrastructure (hardware) cost, dollars, including rack share.
    infrastructure_usd: float
    #: Burdened 3-year power-and-cooling cost, dollars.
    power_cooling_usd: float

    def __post_init__(self) -> None:
        if self.performance < 0:
            raise ValueError("performance must be >= 0")
        for name in ("power_w", "infrastructure_usd", "power_cooling_usd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def tco_usd(self) -> float:
        """Total cost of ownership over the depreciation cycle."""
        return self.infrastructure_usd + self.power_cooling_usd

    @property
    def perf_per_watt(self) -> float:
        return self.performance / self.power_w

    @property
    def perf_per_inf_usd(self) -> float:
        return self.performance / self.infrastructure_usd

    @property
    def perf_per_pc_usd(self) -> float:
        return self.performance / self.power_cooling_usd

    @property
    def perf_per_tco_usd(self) -> float:
        return self.performance / self.tco_usd


#: The metric columns of Figure 2(c), by attribute name.
METRIC_ATTRIBUTES: Dict[str, str] = {
    "Perf": "performance",
    "Perf/Inf-$": "perf_per_inf_usd",
    "Perf/W": "perf_per_watt",
    "Perf/P&C-$": "perf_per_pc_usd",
    "Perf/TCO-$": "perf_per_tco_usd",
}
