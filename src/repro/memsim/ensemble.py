"""Ensemble-level memory provisioning statistics (section 3.4 motivation).

The memory blade exists because "per-server sizing for peak loads can
lead to significant ensemble-level overprovisioning" (the paper, citing
Fan et al. and Ranganathan et al.): individual servers rarely peak
simultaneously, so provisioning every server for its own peak buys far
more DRAM than the ensemble ever uses at once.

This module quantifies that effect with a stochastic demand model:

- each server's memory demand follows a mean-reverting AR(1) process
  (bursty but correlated in time), truncated to [floor, peak];
- *per-server provisioning* must buy ``peak`` for every server;
- *ensemble provisioning* buys local memory per server plus a shared
  blade sized so the aggregate demand exceeds capacity with probability
  at most ``overflow_tolerance``.

The gap between the two is the memory the blade design saves -- and the
empirical justification for the paper's dynamic-provisioning assumption
(total memory at 85% of per-server-peak baseline).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class MemoryDemandModel:
    """AR(1) mean-reverting per-server memory demand, GB."""

    mean_gb: float = 2.2
    stddev_gb: float = 0.8
    peak_gb: float = 4.0
    floor_gb: float = 0.5
    #: AR(1) coefficient: demand changes slowly relative to sampling.
    persistence: float = 0.9

    def __post_init__(self) -> None:
        if not 0 < self.floor_gb <= self.mean_gb <= self.peak_gb:
            raise ValueError("need 0 < floor <= mean <= peak")
        if self.stddev_gb <= 0:
            raise ValueError("stddev must be positive")
        if not 0 <= self.persistence < 1:
            raise ValueError("persistence must be in [0, 1)")

    def sample_path(self, steps: int, rng: random.Random) -> List[float]:
        """One server's demand time series."""
        if steps <= 0:
            raise ValueError("steps must be positive")
        innovation_std = self.stddev_gb * math.sqrt(1 - self.persistence**2)
        value = min(
            self.peak_gb,
            max(self.floor_gb, rng.gauss(self.mean_gb, self.stddev_gb)),
        )
        path = [value]
        for _ in range(steps - 1):
            value = (
                self.mean_gb
                + self.persistence * (value - self.mean_gb)
                + rng.gauss(0.0, innovation_std)
            )
            value = min(self.peak_gb, max(self.floor_gb, value))
            path.append(value)
        return path


@dataclass
class ProvisioningStudy:
    """Monte-Carlo comparison of per-server vs ensemble provisioning."""

    demand: MemoryDemandModel
    servers: int = 32
    local_gb_per_server: float = 1.0
    steps: int = 500
    seed: int = 1

    def __post_init__(self) -> None:
        if self.servers <= 0 or self.steps <= 0:
            raise ValueError("servers and steps must be positive")
        if self.local_gb_per_server < 0:
            raise ValueError("local memory must be >= 0")

    def aggregate_demand_samples(self) -> List[float]:
        """Time series of total ensemble demand, GB."""
        rng = random.Random(self.seed)
        paths = [
            self.demand.sample_path(self.steps, rng) for _ in range(self.servers)
        ]
        return [
            sum(path[t] for path in paths) for t in range(self.steps)
        ]

    def per_server_provisioned_gb(self) -> float:
        """Total DRAM under per-server peak sizing."""
        return self.servers * self.demand.peak_gb

    def ensemble_provisioned_gb(self, overflow_tolerance: float = 0.01) -> float:
        """Local memory plus a blade sized to the aggregate quantile."""
        if not 0 < overflow_tolerance < 1:
            raise ValueError("overflow tolerance must be in (0, 1)")
        samples = sorted(self.aggregate_demand_samples())
        index = min(
            len(samples) - 1,
            max(0, math.ceil((1 - overflow_tolerance) * len(samples)) - 1),
        )
        aggregate_quantile = samples[index]
        local_total = self.servers * self.local_gb_per_server
        blade = max(0.0, aggregate_quantile - local_total)
        return local_total + blade

    def savings(self, overflow_tolerance: float = 0.01) -> float:
        """Fraction of DRAM saved by ensemble provisioning."""
        per_server = self.per_server_provisioned_gb()
        ensemble = self.ensemble_provisioned_gb(overflow_tolerance)
        return 1.0 - ensemble / per_server

    def redundant_ensemble_provisioned_gb(
        self,
        capacity_overhead: float,
        overflow_tolerance: float = 0.01,
    ) -> float:
        """Ensemble provisioning with the blade slice bought redundantly.

        Redundancy multiplies only the *shared blade* capacity -- local
        DRAM stays unreplicated (a server loss takes its local working
        set with it either way; the blade is the shared-fate resource
        worth protecting).  ``capacity_overhead`` is raw/usable from
        :class:`~repro.memsim.redundancy.RedundancyPolicy`
        (``.capacity_overhead``): 2.0 for 2-replica, (k+1)/k for k+1
        parity, 1.0 for unprotected.
        """
        if capacity_overhead < 1.0:
            raise ValueError("capacity overhead must be >= 1.0")
        total = self.ensemble_provisioned_gb(overflow_tolerance)
        local_total = self.servers * self.local_gb_per_server
        blade = max(0.0, total - local_total)
        return local_total + blade * capacity_overhead

    def redundant_savings(
        self,
        capacity_overhead: float,
        overflow_tolerance: float = 0.01,
    ) -> float:
        """DRAM saved vs per-server peak, after paying for redundancy.

        The paper's headline savings shrink once the blade is bought
        ``capacity_overhead`` times over; this can go negative when the
        redundant blade outweighs the statistical-multiplexing win --
        the break-even EXT-13's durability-adjusted TCO table prices.
        """
        per_server = self.per_server_provisioned_gb()
        redundant = self.redundant_ensemble_provisioned_gb(
            capacity_overhead, overflow_tolerance
        )
        return 1.0 - redundant / per_server
