"""Amdahl's-law limits on scale-out (paper section 4).

The paper's caveat: "our proposed solution assumes that the workload can
be partitioned to match the new levels of scale-out.  In reality, this
cannot be taken to extremes ... decreased efficiency of software
algorithms, increased sizes of software data structures, increased
latency variabilities, greater networking overheads."

:class:`ScaleOutModel` quantifies that caveat.  Replacing ``n0`` big
servers with ``n`` small ones changes cluster throughput by

    X(n) = n * x_server * partition_efficiency(n)

where the partition efficiency combines a serial (unpartitionable)
fraction, a per-server coordination/networking overhead, and a
data-structure inflation term that grows with the partition count
(each shard duplicates index/dictionary structures).  The model answers
the paper's open question -- the minimum capacity per server where
Amdahl's law bites -- by locating the partition count beyond which
aggregate throughput stops improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def amdahl_speedup(n: float, serial_fraction: float) -> float:
    """Classic Amdahl speedup of ``n``-way parallelism."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= serial_fraction <= 1:
        raise ValueError("serial fraction must be in [0, 1]")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / n)


@dataclass(frozen=True)
class ScaleOutModel:
    """Partitioning-efficiency model for one workload.

    ``serial_fraction``: share of per-request work that cannot be
    partitioned (request parsing, result aggregation).
    ``coordination_overhead``: extra work per request per doubling of the
    partition count (fan-out/merge networking).
    ``datastructure_inflation``: fractional growth of per-shard work per
    doubling (duplicated dictionaries, inflated indexes).
    """

    serial_fraction: float = 0.02
    coordination_overhead: float = 0.01
    datastructure_inflation: float = 0.015

    def __post_init__(self) -> None:
        if not 0 <= self.serial_fraction <= 1:
            raise ValueError("serial fraction must be in [0, 1]")
        if self.coordination_overhead < 0 or self.datastructure_inflation < 0:
            raise ValueError("overheads must be >= 0")

    def partition_efficiency(self, partitions: int) -> float:
        """Useful-work fraction when sharded ``partitions`` ways."""
        if partitions <= 0:
            raise ValueError("partition count must be positive")
        doublings = math.log2(partitions) if partitions > 1 else 0.0
        overhead = (
            self.coordination_overhead + self.datastructure_inflation
        ) * doublings
        amdahl = amdahl_speedup(partitions, self.serial_fraction) / partitions
        return amdahl / (1.0 + overhead)

    def cluster_throughput(self, servers: int, per_server_throughput: float) -> float:
        """Aggregate throughput of ``servers`` identical shards."""
        if per_server_throughput < 0:
            raise ValueError("per-server throughput must be >= 0")
        return servers * per_server_throughput * self.partition_efficiency(servers)

    def max_useful_partitions(self, limit: int = 1 << 20) -> int:
        """Partition count beyond which aggregate throughput declines."""
        best_n, best_x = 1, self.cluster_throughput(1, 1.0)
        n = 1
        while n < limit:
            n *= 2
            x = self.cluster_throughput(n, 1.0)
            if x <= best_x:
                # Refine between the last improving power of two and n.
                lo, hi = best_n, n
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if self.cluster_throughput(mid, 1.0) > best_x:
                        lo, best_x = mid, self.cluster_throughput(mid, 1.0)
                    else:
                        hi = mid
                return lo
            best_n, best_x = n, x
        return best_n

    def equivalence_ratio(
        self, small_per_server: float, big_per_server: float,
        big_servers: int,
    ) -> float:
        """How many small servers replace one big server, with overheads.

        Solves for the small-server count that matches the big cluster's
        aggregate throughput and returns ``small_count / big_servers``.
        The naive ratio is ``big_per_server / small_per_server``; the
        returned value is larger because the deeper partitioning is less
        efficient -- the paper's warning against "overestimating benefits
        for smaller platforms".
        """
        if min(small_per_server, big_per_server) <= 0 or big_servers <= 0:
            raise ValueError("throughputs and server count must be positive")
        target = self.cluster_throughput(big_servers, big_per_server)
        n = big_servers
        while self.cluster_throughput(n, small_per_server) < target:
            n += max(1, n // 50)
            if n > (1 << 26):  # throughput has plateaued below the target
                return float("inf")
        return n / big_servers
