"""Power-consumption model with activity-factor discounting.

The paper computes rack-level consumed power as the sum of per-server
component power plus the rack-level switch power, discounted by an
*activity factor* of 0.75 because actual consumption is documented to be
lower than the maximum operational power from spec sheets (Fan et al.;
paper section 2.2).  The paper also reports that activity factors from 0.5
to 1.0 give qualitatively similar results, which the sensitivity sweep in
:mod:`repro.experiments.sensitivity` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.costmodel.components import Component, ServerBill
from repro.costmodel.rack import RackConfig, STANDARD_RACK

#: The paper's default activity factor (section 2.2).
DEFAULT_ACTIVITY_FACTOR = 0.75


@dataclass(frozen=True)
class PowerModel:
    """Converts spec-sheet component power into consumed power.

    ``activity_factor`` multiplies the maximum operational power of every
    component (and the switch share) to estimate actual draw.
    """

    activity_factor: float = DEFAULT_ACTIVITY_FACTOR
    rack: RackConfig = STANDARD_RACK

    def __post_init__(self) -> None:
        if not 0.0 < self.activity_factor <= 1.0:
            raise ValueError(
                f"activity factor must be in (0, 1], got {self.activity_factor}"
            )

    def server_consumed_w(self, bill: ServerBill, include_switch: bool = True) -> float:
        """Average consumed power of one server, optionally with switch share."""
        watts = bill.power_w
        if include_switch:
            watts += self.rack.switch_power_per_server_w
        return watts * self.activity_factor

    def component_consumed_w(self, bill: ServerBill) -> Dict[Component, float]:
        """Average consumed power per component group (switch excluded)."""
        return {
            component: spec.power_w * self.activity_factor
            for component, spec in bill.items()
        }

    def switch_consumed_per_server_w(self) -> float:
        """Average per-server share of switch power."""
        return self.rack.switch_power_per_server_w * self.activity_factor

    def rack_consumed_w(self, bill: ServerBill) -> float:
        """Average consumed power of a full rack of this server."""
        return self.rack.rack_power_w(bill.power_w) * self.activity_factor
