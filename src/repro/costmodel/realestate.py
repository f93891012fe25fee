"""Real-estate (floor-space) costs — the paper's acknowledged gap.

Section 4: "Ideally, personnel and real-estate costs, though harder to
characterize, would also be included in such a model."  This module adds
the real-estate half: racks occupy floor space (rack footprint plus
service clearance and a share of aisles/infrastructure), and datacenter
floor space carries an amortized cost per square foot per depreciation
cycle.

Density is where the paper's packaging work pays: 320 or 1250 systems
per rack amortize the same floor tile over 8-31x more servers, which is
the quantitative basis for the section 3.6 claim that N2 "consumes 30%
less racks" for equal throughput.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RealEstateModel:
    """Amortized floor-space cost per rack position.

    ``gross_sqft_per_rack`` covers the rack footprint plus its share of
    hot/cold aisles and support space (industry rule of thumb: ~3x the
    ~8 sqft rack footprint).  ``cost_per_sqft_cycle_usd`` is the
    amortized build-out + lease cost over the 3-year depreciation cycle.
    """

    gross_sqft_per_rack: float = 24.0
    cost_per_sqft_cycle_usd: float = 300.0

    def __post_init__(self) -> None:
        if self.gross_sqft_per_rack <= 0:
            raise ValueError("rack floor space must be positive")
        if self.cost_per_sqft_cycle_usd < 0:
            raise ValueError("floor-space cost must be >= 0")

    @property
    def cost_per_rack_usd(self) -> float:
        """Floor-space cost of one rack position over the cycle."""
        return self.gross_sqft_per_rack * self.cost_per_sqft_cycle_usd


#: Default model: ~$7,200 of floor space per rack position per cycle.
DEFAULT_REAL_ESTATE = RealEstateModel()
