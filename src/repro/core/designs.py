"""Complete server designs, including the unified N1 and N2 (section 3.6).

A design bundles everything needed to evaluate Perf/TCO-$:

- a *platform* (performance model) and a *bill* (cost/power model),
- an *enclosure* (packaging/cooling: fan power/cost factor and rack
  density),
- an optional *memory-provisioning scheme* (section 3.4) with its assumed
  slowdown, and
- an optional *disk configuration* (section 3.5) with its simulator disk
  spec.

The two unified designs:

- **N1** (near-term): mobile blades (mobl) in dual-entry enclosures with
  directed airflow.  No memory sharing or flash caching.
- **N2** (longer-term): embedded blades (emb1) as aggregated-cooling
  microblades, with dynamic memory-blade provisioning and remote
  low-power disks behind flash caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cooling.enclosure import (
    AGGREGATED_MICROBLADE,
    CONVENTIONAL_ENCLOSURE,
    DUAL_ENTRY_ENCLOSURE,
    EnclosureDesign,
)
from repro.cooling.rack import pack_rack
from repro.costmodel.catalog import server_bill
from repro.costmodel.components import Component, ComponentSpec, ServerBill
from repro.costmodel.power import PowerModel
from repro.costmodel.rack import RackConfig, STANDARD_RACK
from repro.costmodel.tco import TcoBreakdown, TcoModel
from repro.flashcache.analysis import DiskConfiguration, disk_configuration
from repro.flashcache.models import DiskSpec
from repro.memsim.provisioning import (
    ASSUMED_SLOWDOWN,
    DYNAMIC_PROVISIONING,
    ProvisioningScheme,
    provisioned_memory_spec,
)
from repro.platforms.catalog import platform as _platform
from repro.platforms.platform import Platform

#: Fraction of the POWER_FANS component that is fans/heat sinks (the rest
#: is the power supply, which packaging changes do not shrink).
FAN_FRACTION = 0.5


@dataclass(frozen=True)
class BaselineDesign:
    """A stock Table 2 system in conventional 1U packaging."""

    name: str
    platform_name: str

    @property
    def platform(self) -> Platform:
        return _platform(self.platform_name)

    def bill(self) -> ServerBill:
        return server_bill(self.platform_name)

    def rack(self) -> RackConfig:
        return STANDARD_RACK

    @property
    def memory_slowdown(self) -> float:
        return 1.0

    def memory_slowdown_for(self, benchmark: str) -> float:
        """Per-benchmark slowdown multiplier (baselines never page)."""
        return 1.0

    def disk_model_for(self, workload_name: str) -> Optional[DiskSpec]:
        """Simulator disk spec override (None = platform default)."""
        return None

    def tco_breakdown(self) -> TcoBreakdown:
        model = TcoModel(power_model=PowerModel(rack=self.rack()))
        return model.breakdown(self.bill())


@dataclass(frozen=True)
class UnifiedDesign:
    """A composed design: platform + packaging + memory + disk choices."""

    name: str
    platform_name: str
    enclosure: EnclosureDesign
    memory_scheme: Optional[ProvisioningScheme] = None
    disk_config: Optional[DiskConfiguration] = None
    description: str = ""
    #: Measure the paging slowdown per benchmark from its exact-LRU
    #: miss-ratio curve instead of assuming the paper's uniform 2%.
    measured_memory: bool = False

    @property
    def platform(self) -> Platform:
        return _platform(self.platform_name)

    @property
    def memory_slowdown(self) -> float:
        """Uniform CPU slowdown from remote-memory paging (paper: 2%)."""
        return 1.0 + ASSUMED_SLOWDOWN if self.memory_scheme else 1.0

    def memory_slowdown_for(self, benchmark: str) -> float:
        """Per-benchmark slowdown multiplier.

        Default: the paper's assumed uniform slowdown.  With
        ``measured_memory`` set, benchmarks that have a page-trace spec
        use the slowdown measured off their memoized LRU miss-ratio
        curve at this scheme's local fraction (exact-LRU lower bracket,
        PCIe x4 latency); benchmarks without a trace keep the assumed
        value.
        """
        if self.memory_scheme is None:
            return 1.0
        if not self.measured_memory:
            return self.memory_slowdown
        from repro.memsim.trace import WORKLOAD_TRACES
        from repro.memsim.twolevel import measured_slowdown

        if benchmark not in WORKLOAD_TRACES:
            return self.memory_slowdown
        return 1.0 + measured_slowdown(
            benchmark, self.memory_scheme.local_fraction
        )

    def disk_model_for(self, workload_name: str) -> Optional[DiskSpec]:
        """Simulator disk spec override (None = platform default)."""
        if self.disk_config is None:
            return None
        return self.disk_config.disk_spec(workload_name)

    def bill(self) -> ServerBill:
        """Base bill with packaging, memory, and disk deltas applied."""
        bill = server_bill(self.platform_name)
        overrides = {}

        # Packaging: the fan share of POWER_FANS shrinks with cooling
        # efficiency (fewer/smaller fans, shared heat sinks).
        fan_factor = self.enclosure.fan_power_factor(CONVENTIONAL_ENCLOSURE)
        pf = bill.components[Component.POWER_FANS]
        scale = (1.0 - FAN_FRACTION) + FAN_FRACTION * fan_factor
        overrides["power_fans"] = ComponentSpec(
            cost_usd=pf.cost_usd * scale, power_w=pf.power_w * scale
        )

        if self.memory_scheme is not None:
            overrides["memory"] = provisioned_memory_spec(
                bill.components[Component.MEMORY], self.memory_scheme
            )

        if self.disk_config is not None:
            overrides["disk"] = self.disk_config.disk_component()

        return bill.replace(name=self.name, **overrides)

    def rack(self) -> RackConfig:
        """Rack configuration at the enclosure's density."""
        return pack_rack(self.enclosure, self.bill().power_w).rack_config()

    def tco_breakdown(self) -> TcoBreakdown:
        model = TcoModel(power_model=PowerModel(rack=self.rack()))
        return model.breakdown(self.bill())


def baseline_design(platform_name: str) -> BaselineDesign:
    """A stock Table 2 system as a design (srvr1, srvr2, desk, ...)."""
    return BaselineDesign(name=platform_name, platform_name=platform_name)


def n1_design() -> UnifiedDesign:
    """N1: mobile blades + dual-entry enclosures with directed airflow."""
    return UnifiedDesign(
        name="N1",
        platform_name="mobl",
        enclosure=DUAL_ENTRY_ENCLOSURE,
        description=(
            "near-term: mobile blades in dual-entry enclosures with "
            "directed airflow; no memory sharing or flash caching"
        ),
    )


def n2_design() -> UnifiedDesign:
    """N2: embedded microblades + aggregated cooling + memory sharing +
    remote low-power disks with flash caching."""
    return UnifiedDesign(
        name="N2",
        platform_name="emb1",
        enclosure=AGGREGATED_MICROBLADE,
        memory_scheme=DYNAMIC_PROVISIONING,
        disk_config=disk_configuration("remote-laptop+flash"),
        description=(
            "longer-term: embedded microblades with aggregated cooling, "
            "dynamic memory-blade provisioning, and SAN laptop disks "
            "behind flash caches"
        ),
    )
