"""Component fault characteristics: MTBF/MTTR profiles.

Hamilton's "Architecture for Modular Data Centers" (see PAPERS.md)
argues warehouse-scale systems must be designed around large numbers of
low-cost, *low-reliability* commodity components -- exactly the CPU and
disk substitutions the paper's sections 3.2 and 3.5 make.  This module
gives every component class a failure model: an exponential
time-to-failure (MTBF) and an exponential time-to-repair (MTTR), the
standard memoryless model for hardware fault processes.

Two consumers share these profiles:

- :class:`repro.faults.injector.FaultInjector` draws concrete fault
  events from them inside the discrete-event simulator (usually from
  the seconds-scale :data:`STRESS_FAULT_PROFILE`, since real MTBFs of
  months would never fire in a seconds-long simulated window), and
- :class:`repro.costmodel.availability.RepairCostModel` prices the
  expected repair labour and downtime over the three-year depreciation
  cycle from the *unaccelerated* figures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

#: Milliseconds per hour (fault specs are quoted in hours, simulated in ms).
MS_PER_HOUR = 3_600_000.0

#: Hours in the paper's three-year depreciation cycle.
DEPRECIATION_CYCLE_HOURS = 3 * 8760.0


class ComponentType(enum.Enum):
    """A failure-domain component class."""

    SERVER = "server"
    DISK = "disk"
    NIC = "nic"
    MEMORY_BLADE = "memory-blade"
    FLASH_CACHE = "flash-cache"
    ENCLOSURE_FAN = "enclosure-fan"
    ENCLOSURE_PSU = "enclosure-psu"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class FaultSpec:
    """Exponential failure/repair process for one component class."""

    mtbf_hours: float
    mttr_hours: float

    def __post_init__(self) -> None:
        if self.mtbf_hours <= 0:
            raise ValueError("MTBF must be positive")
        if self.mttr_hours <= 0:
            raise ValueError("MTTR must be positive")

    @property
    def mtbf_ms(self) -> float:
        return self.mtbf_hours * MS_PER_HOUR

    @property
    def mttr_ms(self) -> float:
        return self.mttr_hours * MS_PER_HOUR

    @property
    def availability(self) -> float:
        """Steady-state fraction of time up: MTBF / (MTBF + MTTR)."""
        return self.mtbf_hours / (self.mtbf_hours + self.mttr_hours)

    def incidents_per_cycle(
        self, cycle_hours: float = DEPRECIATION_CYCLE_HOURS
    ) -> float:
        """Expected failure count over a depreciation cycle."""
        if cycle_hours < 0:
            raise ValueError("cycle must be >= 0")
        return cycle_hours / self.mtbf_hours


@dataclass(frozen=True)
class FaultProfile:
    """Per-component-class fault specs for one deployment."""

    name: str
    specs: Mapping[ComponentType, FaultSpec]

    def __post_init__(self) -> None:
        # Freeze the mapping so profiles are safely shareable defaults.
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))

    def spec(self, component: ComponentType) -> Optional[FaultSpec]:
        """The spec for one component class (None = never fails)."""
        return self.specs.get(component)


#: Default commodity-hardware fault profile (unaccelerated, real hours).
#:
#: MTBFs follow the coarse public figures for 2008-era commodity parts:
#: whole-server software/hardware crashes a few times a decade (but
#: repaired fast by automated restart), disks at a ~4% annualized failure
#: rate, NICs and flash modules rarely, shared parts (memory blade,
#: enclosure fans and power supplies) at datasheet-class rates.  MTTRs
#: model a staffed warehouse: automated restarts in minutes-to-hours,
#: human part swaps within a shift.
DEFAULT_FAULT_PROFILE = FaultProfile(
    name="commodity-2008",
    specs={
        ComponentType.SERVER: FaultSpec(mtbf_hours=17_520.0, mttr_hours=1.0),
        ComponentType.DISK: FaultSpec(mtbf_hours=219_000.0, mttr_hours=8.0),
        ComponentType.NIC: FaultSpec(mtbf_hours=876_000.0, mttr_hours=2.0),
        ComponentType.MEMORY_BLADE: FaultSpec(mtbf_hours=100_000.0, mttr_hours=4.0),
        ComponentType.FLASH_CACHE: FaultSpec(mtbf_hours=500_000.0, mttr_hours=1.0),
        ComponentType.ENCLOSURE_FAN: FaultSpec(mtbf_hours=100_000.0, mttr_hours=2.0),
        ComponentType.ENCLOSURE_PSU: FaultSpec(mtbf_hours=150_000.0, mttr_hours=4.0),
    },
)


def _seconds(mtbf_s: float, mttr_s: float) -> FaultSpec:
    return FaultSpec(mtbf_hours=mtbf_s / 3600.0, mttr_hours=mttr_s / 3600.0)


#: Accelerated profile for fault *injection* (MTBF/MTTR in seconds of
#: simulated time).  A measured window is ~60 s, so these rates make each
#: component class fail a handful of times per run -- the same relative
#: failure mix as :data:`DEFAULT_FAULT_PROFILE`, compressed.  Cost math
#: never uses this profile.
STRESS_FAULT_PROFILE = FaultProfile(
    "stress-60s-window",
    {
        ComponentType.SERVER: _seconds(90.0, 3.0),
        ComponentType.DISK: _seconds(240.0, 5.0),
        ComponentType.NIC: _seconds(480.0, 2.0),
        ComponentType.MEMORY_BLADE: _seconds(40.0, 3.0),
        ComponentType.FLASH_CACHE: _seconds(120.0, 3.0),
        ComponentType.ENCLOSURE_FAN: _seconds(150.0, 5.0),
        ComponentType.ENCLOSURE_PSU: _seconds(300.0, 4.0),
    },
)
