"""Three-year total cost of ownership (TCO) per server.

Combines the hardware bill (:mod:`repro.costmodel.components`), rack
amortization (:mod:`repro.costmodel.rack`), consumed power
(:mod:`repro.costmodel.power`) and the burdened P&C model
(:mod:`repro.costmodel.burdened`) into the per-server TCO the paper's
Perf/TCO-$ metric divides by.

:class:`TcoBreakdown` exposes every line of the paper's Figure 1(a) table
and the component-level split of Figure 1(b) (hardware vs burdened power
and cooling per component, plus the rack/switch share).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.costmodel.burdened import BurdenedPowerCoolingModel
from repro.costmodel.components import ServerBill
from repro.costmodel.power import PowerModel
from repro.costmodel.rack import RackConfig


class CostCategory(enum.Enum):
    """Whether a cost line is hardware capital or burdened power & cooling."""

    HARDWARE = "HW"
    POWER_COOLING = "P&C"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Pseudo-component used for the rack/switch share in breakdowns.
RACK_SHARE = "rack+switch"


@dataclass(frozen=True)
class TcoBreakdown:
    """Full per-server cost decomposition over the depreciation cycle."""

    system: str
    hardware_usd: Dict[str, float]
    power_cooling_usd: Dict[str, float]
    server_power_w: float
    consumed_power_w: float

    @property
    def hardware_total_usd(self) -> float:
        """Per-server hardware cost including the rack/switch share."""
        return sum(self.hardware_usd.values())

    @property
    def power_cooling_total_usd(self) -> float:
        """Burdened power-and-cooling cost over the cycle."""
        return sum(self.power_cooling_usd.values())

    @property
    def total_usd(self) -> float:
        """Total cost of ownership (the paper's "Total costs" line)."""
        return self.hardware_total_usd + self.power_cooling_total_usd

    def pie_slices(self) -> Dict[Tuple[str, CostCategory], float]:
        """All Figure 1(b) pie slices as ``{(label, category): fraction}``."""
        slices: Dict[Tuple[str, CostCategory], float] = {}
        for label, usd in self.hardware_usd.items():
            slices[(label, CostCategory.HARDWARE)] = usd / self.total_usd
        for label, usd in self.power_cooling_usd.items():
            slices[(label, CostCategory.POWER_COOLING)] = usd / self.total_usd
        return slices


@dataclass(frozen=True)
class TcoModel:
    """Per-server TCO calculator with the paper's default parameters."""

    power_model: PowerModel = field(default_factory=PowerModel)
    burdened_model: BurdenedPowerCoolingModel = field(
        default_factory=BurdenedPowerCoolingModel
    )

    @property
    def rack(self) -> RackConfig:
        return self.power_model.rack

    def breakdown(self, bill: ServerBill) -> TcoBreakdown:
        """Compute the full cost decomposition for one server bill."""
        hardware: Dict[str, float] = {
            component.value: spec.cost_usd for component, spec in bill.items()
        }
        hardware[RACK_SHARE] = self.rack.switch_cost_per_server_usd

        power_cooling: Dict[str, float] = {}
        for component, watts in self.power_model.component_consumed_w(bill).items():
            power_cooling[component.value] = self.burdened_model.cost_usd(watts)
        power_cooling[RACK_SHARE] = self.burdened_model.cost_usd(
            self.power_model.switch_consumed_per_server_w()
        )

        return TcoBreakdown(
            system=bill.name,
            hardware_usd=hardware,
            power_cooling_usd=power_cooling,
            server_power_w=bill.power_w,
            consumed_power_w=self.power_model.server_consumed_w(bill),
        )

    def total_usd(self, bill: ServerBill) -> float:
        """Per-server TCO (hardware + burdened P&C + rack share)."""
        return self.breakdown(bill).total_usd

    def availability_adjusted(
        self,
        bill: ServerBill,
        repair_model,
        components,
        shared=None,
        degraded=None,
    ):
        """The breakdown plus repair costs and an availability multiplier.

        ``repair_model`` is a
        :class:`repro.costmodel.availability.RepairCostModel`;
        ``components`` lists the :class:`repro.faults.ComponentType`
        classes in this server's serving path, ``shared`` how many
        servers split each shared one, and ``degraded`` the relative
        performance retained when a gracefully-degrading component is
        down.  Returns an
        :class:`repro.costmodel.availability.AvailabilityAdjustedTco`.
        """
        # Imported here: repro.costmodel.availability depends on this
        # module for TcoBreakdown.
        from repro.costmodel.availability import AvailabilityAdjustedTco

        component_list = list(components)
        return AvailabilityAdjustedTco(
            breakdown=self.breakdown(bill),
            repair_usd=repair_model.repair_cost_usd(component_list, shared),
            availability=repair_model.effective_availability(
                component_list, degraded
            ),
        )
