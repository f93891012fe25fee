"""Rack packing: how many systems fit, and at what power density.

Supports the paper's section 3.2/3.3 observations: a standard 42U rack of
srvr1 consumes 13.6 kW while emb1 consumes only 2.7 kW; the dual-entry
enclosure raises density to 320 low-power blades per rack, and aggregated
microblades to 1250 systems per rack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cooling.enclosure import EnclosureDesign
from repro.costmodel.rack import RackConfig, STANDARD_RACK


@dataclass(frozen=True)
class RackPacking:
    """One packed rack: density, power, and the derived RackConfig."""

    enclosure: EnclosureDesign
    server_power_w: float
    switch_rack_power_w: float
    switch_rack_cost_usd: float

    @property
    def systems_per_rack(self) -> int:
        return self.enclosure.systems_per_rack

    @property
    def rack_power_kw(self) -> float:
        """Total rack power in kilowatts (servers + switches)."""
        return (
            self.systems_per_rack * self.server_power_w + self.switch_rack_power_w
        ) / 1000.0

    def rack_config(self) -> RackConfig:
        """Equivalent cost-model rack configuration."""
        return RackConfig(
            servers_per_rack=self.systems_per_rack,
            switch_rack_cost_usd=self.switch_rack_cost_usd,
            switch_rack_power_w=self.switch_rack_power_w,
        )


def pack_rack(
    enclosure: EnclosureDesign,
    server_power_w: float,
    base_rack: RackConfig = STANDARD_RACK,
) -> RackPacking:
    """Pack one rack with the given enclosure design.

    Switch cost and power scale with the number of 40-server groups so
    the per-server network share stays constant (conservative: denser
    packaging is not credited with cheaper networking).
    """
    if server_power_w < 0:
        raise ValueError("server power must be >= 0")
    groups = enclosure.systems_per_rack / base_rack.servers_per_rack
    return RackPacking(
        enclosure=enclosure,
        server_power_w=server_power_w,
        switch_rack_power_w=base_rack.switch_rack_power_w * groups,
        switch_rack_cost_usd=base_rack.switch_rack_cost_usd * groups,
    )
