"""Pricing availability: repair costs, downtime, and effective TCO.

The paper's Perf/TCO-$ metric assumes every server is always up.
Hamilton's modular-datacenter argument (PAPERS.md) is that commodity
parts fail often enough that repair labour and lost serving time belong
in the cost model.  This module adds both:

- expected *repair cost* over the three-year depreciation cycle: each
  component class fails ``cycle_hours / MTBF`` times, and every incident
  costs a technician visit plus parts (shared components split their
  incident cost across the servers sharing them);
- *effective availability* of the serving path: the product of the
  steady-state availabilities of every component a request must cross
  (series reliability-block-diagram), optionally with degraded-only
  components (a memory blade with a local-memory fallback, a flash cache
  with a raw-disk path) contributing a performance-weighted factor
  instead of an outage.

``availability_weighted_perf_per_tco`` then reruns the paper's metric as
``(perf x availability) / (TCO + repair)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from repro.costmodel.tco import TcoBreakdown
from repro.faults.model import (
    ComponentType,
    DEPRECIATION_CYCLE_HOURS,
    FaultProfile,
    FaultSpec,
)

#: Default per-incident repair cost (technician time + parts), USD.
#: Whole-server and blade swaps are hands-on; disks/NICs/flash are
#: sled-pull swaps; enclosure fans and PSUs are hot-swap canisters.
DEFAULT_INCIDENT_COST_USD: Mapping[ComponentType, float] = MappingProxyType({
    ComponentType.SERVER: 150.0,
    ComponentType.DISK: 80.0,
    ComponentType.NIC: 40.0,
    ComponentType.MEMORY_BLADE: 300.0,
    ComponentType.FLASH_CACHE: 30.0,
    ComponentType.ENCLOSURE_FAN: 25.0,
    ComponentType.ENCLOSURE_PSU: 60.0,
})


@dataclass(frozen=True)
class RepairCostModel:
    """Expected repair spending and availability over the cycle."""

    profile: FaultProfile
    incident_cost_usd: Mapping[ComponentType, float] = field(
        default_factory=lambda: DEFAULT_INCIDENT_COST_USD
    )
    cycle_hours: float = DEPRECIATION_CYCLE_HOURS

    def __post_init__(self) -> None:
        if self.cycle_hours <= 0:
            raise ValueError("cycle must be positive")
        object.__setattr__(
            self, "incident_cost_usd",
            MappingProxyType(dict(self.incident_cost_usd)),
        )

    def incident_cost(self, component: ComponentType) -> float:
        return self.incident_cost_usd.get(component, 0.0)

    def repair_cost_usd(
        self,
        components: Iterable[ComponentType],
        shared: Optional[Mapping[ComponentType, int]] = None,
    ) -> float:
        """Expected per-server repair cost over the depreciation cycle.

        ``components`` lists every component class in one server's
        serving path; ``shared`` maps a class to the number of servers
        splitting it (a memory blade serving 8 servers charges each
        server 1/8 of its incidents).  An empty ``components`` iterable
        costs 0.0 -- nothing in the path, nothing to repair.  Every
        ``shared`` entry is validated up front, including entries for
        components absent from the path or without a fault spec: a zero
        or negative server count is always a configuration error, never
        silently ignored.
        """
        shared = shared or {}
        for component, share in shared.items():
            if share <= 0:
                raise ValueError(
                    f"share for {component} must be positive (a shared "
                    f"component is split across >= 1 servers), got {share}"
                )
        total = 0.0
        for component in components:
            spec = self.profile.spec(component)
            if spec is None:
                continue
            incidents = spec.incidents_per_cycle(self.cycle_hours)
            total += incidents * self.incident_cost(component) / shared.get(
                component, 1
            )
        return total

    def effective_availability(
        self,
        components: Iterable[ComponentType],
        degraded: Optional[Mapping[ComponentType, float]] = None,
    ) -> float:
        """Serving-path availability with graceful-degradation credit.

        Components appearing in ``degraded`` do not cause an outage when
        down -- service continues at the given relative performance
        (e.g. ``{MEMORY_BLADE: 0.7}``: blade-down time still delivers
        70% of healthy throughput).  Everything else is in series: the
        path is down whenever any of them is.

        Edge cases are identities, not surprises: an empty
        ``components`` iterable yields 1.0 (a path with no fallible
        component is always up), components without a fault spec
        contribute 1.0, and a zero MTTR cannot reach this method
        because :class:`~repro.faults.model.FaultSpec` rejects it at
        construction -- every series factor is strictly in (0, 1].
        """
        degraded = degraded or {}
        availability = 1.0
        for component in components:
            spec = self.profile.spec(component)
            if spec is None:
                continue
            if component in degraded:
                credit = degraded[component]
                if not 0.0 <= credit <= 1.0:
                    raise ValueError(
                        f"degraded performance for {component} must be in [0, 1]"
                    )
                availability *= (
                    spec.availability + (1.0 - spec.availability) * credit
                )
            else:
                availability *= spec.availability
        return availability


@dataclass(frozen=True)
class AvailabilityAdjustedTco:
    """A TCO breakdown with repair costs and an availability multiplier."""

    breakdown: TcoBreakdown
    repair_usd: float
    availability: float

    def __post_init__(self) -> None:
        if self.repair_usd < 0:
            raise ValueError("repair cost must be >= 0")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")

    @property
    def total_usd(self) -> float:
        """TCO including expected repair spending over the cycle."""
        return self.breakdown.total_usd + self.repair_usd

    def availability_weighted_perf_per_tco(self, performance: float) -> float:
        """The paper's Perf/TCO-$ with availability priced in."""
        if performance < 0:
            raise ValueError("performance must be >= 0")
        return performance * self.availability / self.total_usd


@dataclass(frozen=True)
class DurabilityModel:
    """Mean time to data loss for a redundant memory-blade group.

    The classic Markov-chain approximation for ``n`` identical
    components tolerating ``f`` concurrent losses (Patterson/Gibson/
    Katz for f=1; the general birth-death chain otherwise), valid while
    repair is much faster than failure (MTTR << MTBF):

        MTTDL ~= MTBF^(f+1) / (n * (n-1) * ... * (n-f) * repair^f)

    - ``f = 0`` (unprotected): MTTDL = MTBF / n -- the first blade
      failure in the group loses pages;
    - ``f = 1`` (2-replica, or k+1 parity): MTBF^2 / (n * (n-1) * repair);
    - the repair window is the hardware MTTR *plus* the rebuild time,
      because a swapped-in blank blade stays vulnerable until the
      recovery orchestrator has re-replicated onto it.  A faster
      rebuild throttle therefore buys durability directly -- the knob
      EXT-13's QoS-aware throttle trades against foreground p99.
    """

    spec: FaultSpec
    group_width: int
    fault_tolerance: int
    capacity_overhead: float
    rebuild_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.group_width < 1:
            raise ValueError("group width must be >= 1")
        if not 0 <= self.fault_tolerance < self.group_width:
            raise ValueError(
                "fault tolerance must be in [0, group_width)"
            )
        if self.capacity_overhead < 1.0:
            raise ValueError("capacity overhead must be >= 1.0")
        if self.rebuild_hours < 0:
            raise ValueError("rebuild time must be >= 0")

    @classmethod
    def for_policy(
        cls,
        spec: FaultSpec,
        policy,
        blades: Optional[int] = None,
        rebuild_hours: float = 0.0,
    ) -> "DurabilityModel":
        """Build from a :class:`~repro.memsim.redundancy.RedundancyPolicy`.

        Duck-typed on ``fault_tolerance`` / ``capacity_overhead`` /
        ``min_blades`` so the costmodel never imports the simulator.
        ``policy=None`` models the unprotected arm: one copy, overhead
        1.0, tolerance 0.
        """
        if policy is None:
            return cls(
                spec=spec,
                group_width=blades or 1,
                fault_tolerance=0,
                capacity_overhead=1.0,
                rebuild_hours=rebuild_hours,
            )
        return cls(
            spec=spec,
            group_width=blades or policy.min_blades,
            fault_tolerance=policy.fault_tolerance,
            capacity_overhead=policy.capacity_overhead,
            rebuild_hours=rebuild_hours,
        )

    @property
    def repair_window_hours(self) -> float:
        """Hours of exposure per failure: hardware swap + rebuild."""
        return self.spec.mttr_hours + self.rebuild_hours

    @property
    def mttdl_hours(self) -> float:
        """Mean time to losing data somewhere in the group, hours."""
        mtbf = self.spec.mtbf_hours
        n, f = self.group_width, self.fault_tolerance
        denominator = 1.0
        for k in range(f + 1):
            denominator *= n - k
        return mtbf ** (f + 1) / (
            denominator * self.repair_window_hours**f
        )

    def data_loss_probability(
        self, cycle_hours: float = DEPRECIATION_CYCLE_HOURS
    ) -> float:
        """P(at least one loss event) over the cycle: 1 - e^(-t/MTTDL)."""
        if cycle_hours < 0:
            raise ValueError("cycle must be >= 0")
        return 1.0 - math.exp(-cycle_hours / self.mttdl_hours)

    def durability(
        self, cycle_hours: float = DEPRECIATION_CYCLE_HOURS
    ) -> float:
        """P(no loss) over the cycle -- the survival complement."""
        return 1.0 - self.data_loss_probability(cycle_hours)

    def redundancy_capex_usd(self, memory_capex_usd: float) -> float:
        """Extra capacity spend: copies you buy but cannot sell.

        ``memory_capex_usd`` is the *usable* remote-memory capital cost;
        the redundant raw capacity multiplies it by the overhead, and
        this returns only the increment (0.0 when unprotected).
        """
        if memory_capex_usd < 0:
            raise ValueError("memory capex must be >= 0")
        return memory_capex_usd * (self.capacity_overhead - 1.0)


@dataclass(frozen=True)
class DurabilityAdjustedTco:
    """Availability-adjusted TCO further charged for durability.

    Stacks on :class:`AvailabilityAdjustedTco`: the denominator grows by
    the redundant-capacity capex, and the numerator is discounted by the
    probability the group keeps every page through the depreciation
    cycle.  An unprotected group pays no capacity premium but eats the
    full ``1 - e^(-t/MTTDL)`` durability discount; a protected one pays
    the premium and keeps the numerator -- which arm wins is exactly the
    durability-vs-cost trade EXT-13 sweeps.
    """

    adjusted: AvailabilityAdjustedTco
    durability_model: DurabilityModel
    memory_capex_usd: float

    def __post_init__(self) -> None:
        if self.memory_capex_usd < 0:
            raise ValueError("memory capex must be >= 0")

    @property
    def redundancy_capex_usd(self) -> float:
        return self.durability_model.redundancy_capex_usd(
            self.memory_capex_usd
        )

    @property
    def total_usd(self) -> float:
        """TCO + expected repair + redundant-capacity capex."""
        return self.adjusted.total_usd + self.redundancy_capex_usd

    def durability_weighted_perf_per_tco(
        self,
        performance: float,
        cycle_hours: float = DEPRECIATION_CYCLE_HOURS,
    ) -> float:
        """Perf/TCO-$ weighted by availability *and* durability."""
        if performance < 0:
            raise ValueError("performance must be >= 0")
        return (
            performance
            * self.adjusted.availability
            * self.durability_model.durability(cycle_hours)
            / self.total_usd
        )
