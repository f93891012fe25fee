"""Approximate mean-value analysis (MVA) of the server queueing network.

The closed-loop server simulation of :mod:`repro.simulator.server_sim` is
a product-form-ish closed queueing network: N clients with think time Z
cycling through four stations (CPU cores, memory channels, disk, NIC).
This module solves the same network analytically with classic exact MVA
plus the Seidmann approximation for multi-server stations (an m-server
station becomes a single queueing station with demand D/m plus a pure
delay of D*(m-1)/m).

The analytic model is used for fast design-space exploration, as the
initial guess for the QoS sweep, and as a cross-check on the DES in the
test suite (the two agree within a few percent at saturation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.platforms.platform import Platform
from repro.workloads.base import Workload


def mva_throughput(
    stations: Sequence[Tuple[float, int]],
    population: int,
    think_ms: float = 0.0,
) -> float:
    """Closed-network throughput (requests/ms) by approximate MVA.

    ``stations`` is a sequence of ``(service_demand_ms, servers)`` pairs;
    ``population`` is the number of circulating clients; ``think_ms`` is
    the pure think-time delay.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if think_ms < 0:
        raise ValueError("think time must be >= 0")
    queue_demands: List[float] = []
    delay = think_ms
    for demand, servers in stations:
        if demand < 0 or servers <= 0:
            raise ValueError("invalid station parameters")
        if demand == 0:
            continue
        queue_demands.append(demand / servers)
        delay += demand * (servers - 1) / servers
    if not queue_demands:
        return float("inf") if delay == 0 else population / delay

    queue_lengths = [0.0] * len(queue_demands)
    throughput = 0.0
    for n in range(1, population + 1):
        residence = [d * (1.0 + q) for d, q in zip(queue_demands, queue_lengths)]
        total = sum(residence) + delay
        throughput = n / total
        queue_lengths = [throughput * r for r in residence]
    return throughput


@dataclass(frozen=True)
class AnalyticServerModel:
    """MVA model of one (platform, workload) pair.

    ``disk_service_ms`` overrides the platform disk's mean service time
    (used for the SAN/flash-cache configurations of section 3.5);
    ``cpu_multiplier`` models uniform CPU slowdowns such as the 2%
    remote-memory paging overhead of section 3.4.
    """

    platform: Platform
    workload: Workload
    disk_service_ms: Optional[float] = None
    cpu_multiplier: float = 1.0

    def service_demands(self) -> List[Tuple[float, int]]:
        """Per-request mean service demands as ``(ms, servers)`` stations."""
        platform = self.platform
        profile = self.workload.profile
        demand = self.workload.mean_demand()
        disk_ms = (
            self.disk_service_ms
            if self.disk_service_ms is not None
            else platform.disk_time_ms(
                demand.disk_ios, demand.disk_bytes, write=demand.disk_write
            )
        )
        return [
            (
                platform.cpu_time_ms(
                    demand.cpu_ms_ref,
                    profile.cache_sensitivity,
                    profile.inorder_ipc_factor,
                    profile.stall_fraction,
                )
                * self.cpu_multiplier,
                platform.cpu.total_cores,
            ),
            (
                platform.memory_channel_time_ms(demand.mem_ms_ref),
                platform.memory.channels,
            ),
            (disk_ms, 1),
            (platform.net_time_ms(demand.net_bytes), 1),
        ]

    def throughput_rps(self, population: Optional[int] = None) -> float:
        """Closed-loop throughput in requests/second."""
        profile = self.workload.profile
        n = (
            population
            if population is not None
            else profile.population.population(self.platform.cpu.total_cores)
        )
        per_ms = mva_throughput(self.service_demands(), n, profile.think_time_ms)
        return per_ms * 1000.0

    def saturation_rps(self) -> float:
        """Asymptotic bound: min over stations of capacity/demand."""
        best = float("inf")
        for demand, servers in self.service_demands():
            if demand > 0:
                best = min(best, servers / demand)
        return best * 1000.0
