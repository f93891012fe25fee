"""Rack-level configuration: server count, switch cost, and switch power.

The paper cumulates per-server costs at the rack level and adds switch and
enclosure costs there (section 2.2).  Figure 1(a) uses 40 servers per rack,
a $2,750 switch+rack cost, and 40 W of switch power per rack; the new
packaging designs of section 3.3 raise the density to 320 (dual-entry
enclosures) and 1250 (aggregated microblades) systems per rack.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RackConfig:
    """Rack composition shared by every server in the ensemble.

    ``servers_per_rack`` amortizes the switch/rack cost and power across
    servers; denser packaging therefore directly reduces the per-server
    rack overhead.
    """

    servers_per_rack: int = 40
    switch_rack_cost_usd: float = 2750.0
    switch_rack_power_w: float = 40.0
    rack_units: int = 42

    def __post_init__(self) -> None:
        if self.servers_per_rack <= 0:
            raise ValueError("servers_per_rack must be positive")
        if self.switch_rack_cost_usd < 0 or self.switch_rack_power_w < 0:
            raise ValueError("switch cost/power must be >= 0")

    @property
    def switch_cost_per_server_usd(self) -> float:
        """Per-server share of the switch + rack hardware cost."""
        return self.switch_rack_cost_usd / self.servers_per_rack

    @property
    def switch_power_per_server_w(self) -> float:
        """Per-server share of the switch power."""
        return self.switch_rack_power_w / self.servers_per_rack

    def rack_power_w(self, server_power_w: float) -> float:
        """Total rack power for servers drawing ``server_power_w`` each.

        Used for the paper's section 3.2 observation that a rack of srvr1
        consumes 13.6 kW while a rack of emb1 consumes only 2.7 kW.
        """
        if server_power_w < 0:
            raise ValueError("server power must be >= 0")
        return self.servers_per_rack * server_power_w + self.switch_rack_power_w


#: The paper's default rack: 40 1U "pizza box" servers, $2,750 switch.
STANDARD_RACK = RackConfig()
