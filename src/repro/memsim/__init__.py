"""Ensemble-level memory sharing (paper section 3.4).

A memory blade provides a remote memory pool shared by the servers in an
enclosure over PCIe; each server keeps a smaller local memory and swaps
4 KB pages with the blade on a local-memory miss (exclusive caching,
detected as a TLB miss, serviced by a lightweight trap handler).

This package reproduces the paper's evaluation:

- :mod:`~repro.memsim.trace` -- synthetic page-access traces with
  per-workload locality (the paper gathered traces on the emb1 model;
  we generate statistically equivalent ones).
- :mod:`~repro.memsim.twolevel` -- the two-level trace simulator under
  LRU and random replacement (the paper brackets implementable policies
  between these two), and the slowdown model with PCIe x4 (4 us/page)
  and critical-block-first (CBF, 0.75 us) remote-access latencies.
- :mod:`~repro.memsim.blade` -- the memory-blade architecture: capacity
  allocation and per-server isolation.
- :mod:`~repro.memsim.provisioning` -- static vs dynamic provisioning
  cost/power analysis (Figure 4(c)).
- :mod:`~repro.memsim.sharing` -- content-based page sharing and
  compression extensions the paper lists as enabled optimizations.
- :mod:`~repro.memsim.dma` -- DMA I/O directly to the second-level
  memory (section 4 architectural enhancement).
- :mod:`~repro.memsim.ensemble` -- stochastic ensemble-provisioning
  study: why per-server peak sizing overprovisions.
- :mod:`~repro.memsim.redundancy` -- replica and parity (k+1 XOR) page
  placement across several enclosure blades, with blade-down failover,
  rebuild worklists, and page-conservation audits.
"""

from repro.memsim.trace import (
    PageTraceSpec,
    WORKLOAD_TRACES,
    cached_trace,
    generate_trace,
    trace_chunks,
)
from repro.memsim.twolevel import (
    MissStats,
    TwoLevelMemorySimulator,
    PCIE_X4_PAGE_LATENCY_US,
    CBF_PAGE_LATENCY_US,
    lru_fraction_sweep,
    lru_miss_curve,
    measured_slowdown,
    slowdown_fraction,
)
from repro.memsim.blade import MemoryBlade, BladeAllocation
from repro.memsim.provisioning import (
    ProvisioningScheme,
    STATIC_PARTITIONING,
    DYNAMIC_PROVISIONING,
    provisioned_memory_spec,
    scheme_performance_ratio,
)
from repro.memsim.sharing import (
    CompressionModel,
    PageSharingModel,
    effective_capacity_factor,
)
from repro.memsim.dma import DmaDirectModel
from repro.memsim.ensemble import MemoryDemandModel, ProvisioningStudy
from repro.memsim.remote_memory import RemoteMemoryModel, make_remote_memory_model
from repro.memsim.redundancy import (
    BladeGroup,
    RedundancyAudit,
    RedundancyPolicy,
    ServiceProfile,
    auto_blade_group,
)

__all__ = [
    "PageTraceSpec",
    "WORKLOAD_TRACES",
    "cached_trace",
    "generate_trace",
    "trace_chunks",
    "lru_fraction_sweep",
    "lru_miss_curve",
    "measured_slowdown",
    "scheme_performance_ratio",
    "MissStats",
    "TwoLevelMemorySimulator",
    "PCIE_X4_PAGE_LATENCY_US",
    "CBF_PAGE_LATENCY_US",
    "slowdown_fraction",
    "MemoryBlade",
    "BladeAllocation",
    "ProvisioningScheme",
    "STATIC_PARTITIONING",
    "DYNAMIC_PROVISIONING",
    "provisioned_memory_spec",
    "CompressionModel",
    "PageSharingModel",
    "effective_capacity_factor",
    "DmaDirectModel",
    "MemoryDemandModel",
    "ProvisioningStudy",
    "RemoteMemoryModel",
    "make_remote_memory_model",
    "BladeGroup",
    "RedundancyAudit",
    "RedundancyPolicy",
    "ServiceProfile",
    "auto_blade_group",
]
