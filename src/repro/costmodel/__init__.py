"""Cost and power models for warehouse-computing servers (paper section 2.2).

The model has two halves, exactly as the paper describes:

1. *Base hardware costs*: per-component costs (CPU, memory, disk, board and
   management, power-and-cooling hardware such as power supplies and fans)
   accumulated at the server level, plus switch and enclosure costs at the
   rack level.
2. *Burdened power and cooling costs*: rack-level power consumption (with an
   activity factor to discount nameplate/max-operational power), fed into
   the Patel-Shah burdened-cost model with amortized power-delivery (K1),
   cooling electricity (L1) and cooling capital (K2) factors.

The total cost of ownership (TCO) over a three-year depreciation cycle is
the sum of the two.
"""

from repro.costmodel.components import Component, ComponentSpec, ServerBill
from repro.costmodel.rack import RackConfig, STANDARD_RACK
from repro.costmodel.power import PowerModel, DEFAULT_ACTIVITY_FACTOR
from repro.costmodel.burdened import (
    BurdenedCostParameters,
    BurdenedPowerCoolingModel,
    DEFAULT_BURDEN_PARAMETERS,
)
from repro.costmodel.tco import TcoModel, TcoBreakdown, CostCategory
from repro.costmodel.catalog import (
    SERVER_BILLS,
    server_bill,
    system_names,
)
from repro.costmodel.availability import (
    AvailabilityAdjustedTco,
    DEFAULT_INCIDENT_COST_USD,
    DurabilityAdjustedTco,
    DurabilityModel,
    RepairCostModel,
)
from repro.costmodel.realestate import DEFAULT_REAL_ESTATE, RealEstateModel
from repro.costmodel.utilization_power import UtilizationPowerModel

__all__ = [
    "Component",
    "ComponentSpec",
    "ServerBill",
    "RackConfig",
    "STANDARD_RACK",
    "PowerModel",
    "DEFAULT_ACTIVITY_FACTOR",
    "BurdenedCostParameters",
    "BurdenedPowerCoolingModel",
    "DEFAULT_BURDEN_PARAMETERS",
    "TcoModel",
    "TcoBreakdown",
    "CostCategory",
    "SERVER_BILLS",
    "server_bill",
    "system_names",
    "AvailabilityAdjustedTco",
    "DEFAULT_INCIDENT_COST_USD",
    "DurabilityAdjustedTco",
    "DurabilityModel",
    "RepairCostModel",
    "DEFAULT_REAL_ESTATE",
    "RealEstateModel",
    "UtilizationPowerModel",
]
