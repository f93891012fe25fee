"""Remote-memory traffic as an explicit simulated resource.

The paper's section 3.4 evaluation is trace-driven and admits that "our
trace-based methodology cannot account for the second-order impact of
PCIe link contention".  This module closes that gap: it converts a
request's CPU work into an expected number of remote-page misses (using
the same per-workload trace calibration as the slowdown model) so the
simulator can charge those misses against *explicit shared resources* --
the server's PCIe link and, crucially, the memory-blade controller that
several servers share.

Per request:

    page_touches  = touches_per_ms x cpu_ms_ref
    remote_misses = page_touches x miss_rate(local_fraction)
    link_time     = remote_misses x page_latency
    trap_cpu_time = remote_misses x trap_overhead   (the lightweight
                    OS/hypervisor fault handler runs on the CPU)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.memsim.trace import WORKLOAD_TRACES
from repro.memsim.twolevel import (
    PCIE_X4_PAGE_LATENCY_US,
    TwoLevelMemorySimulator,
)

#: CPU time of the lightweight trap handler per remote miss, microseconds
#: (page-table update, DMA setup; Ekman & Stenstrom-style handler).
DEFAULT_TRAP_OVERHEAD_US = 0.5

#: Per-miss penalty when the memory blade is DOWN and the server falls
#: back to local-memory-only operation, microseconds.  Pages that would
#: have been one 4 us PCIe transfer away must instead be paged in from
#: the swap path (the SAN'd laptop disk).  The OS's swap read-ahead
#: clusters faults into multi-page reads, amortizing the ~10 ms
#: seek+SAN overhead across a 64-page cluster (~156 us/page) plus the
#: 4 KB transfer itself -- call it 200 us per missing page, a 50x
#: degradation over the healthy 4 us PCIe path.
DEFAULT_DEGRADED_MISS_LATENCY_US = 200.0


@dataclass(frozen=True)
class RemoteMemoryModel:
    """Per-request remote-paging costs for one workload."""

    workload_name: str
    local_fraction: float = 0.25
    page_latency_us: float = PCIE_X4_PAGE_LATENCY_US
    trap_overhead_us: float = DEFAULT_TRAP_OVERHEAD_US
    #: Pre-computed miss rate; filled by :func:`make_remote_memory_model`.
    miss_rate: float = 0.0
    touches_per_ms: float = 0.0
    #: Per-miss cost while the blade is down (local-memory-only mode).
    degraded_miss_latency_us: float = DEFAULT_DEGRADED_MISS_LATENCY_US

    def __post_init__(self) -> None:
        if not 0 < self.local_fraction <= 1:
            raise ValueError("local fraction must be in (0, 1]")
        if self.page_latency_us < 0 or self.trap_overhead_us < 0:
            raise ValueError("latencies must be >= 0")
        if not 0 <= self.miss_rate <= 1:
            raise ValueError("miss rate must be in [0, 1]")
        if self.touches_per_ms < 0:
            raise ValueError("touch rate must be >= 0")
        if self.degraded_miss_latency_us < 0:
            raise ValueError("degraded miss latency must be >= 0")

    # Per-request costs read one demand field, ``cpu_ms_ref``: the
    # simulators pass it straight from their tuple demand draws.

    def misses_per_request(self, cpu_ms_ref: float) -> float:
        """Expected remote-page misses for one request."""
        return self.touches_per_ms * cpu_ms_ref * self.miss_rate

    def link_time_ms(self, cpu_ms_ref: float) -> float:
        """PCIe/blade transfer time charged per request."""
        return self.misses_per_request(cpu_ms_ref) * self.page_latency_us / 1000.0

    def trap_cpu_ms(self, cpu_ms_ref: float) -> float:
        """Extra CPU time for fault handling per request."""
        return self.misses_per_request(cpu_ms_ref) * self.trap_overhead_us / 1000.0

    def span_attrs(self, cpu_ms_ref: float) -> dict:
        """Attributes for a traced remote-memory span.

        Rounded so span logs stay compact; values are expectations, not
        sampled counts (the model charges mean traffic per request).
        """
        misses = self.misses_per_request(cpu_ms_ref)
        return {
            "misses": round(misses, 4),
            "trap_cpu_ms": round(self.trap_cpu_ms(cpu_ms_ref), 6),
            "local_fraction": self.local_fraction,
        }

    def degraded_time_ms(self, cpu_ms_ref: float) -> float:
        """Capacity-miss penalty per request while the blade is DOWN.

        Graceful degradation: the server keeps serving from its local
        memory only, and every would-be remote hit becomes a page-in
        from the swap path instead of a PCIe transfer.  Charged against
        the server's disk, not the (unavailable) blade link.
        """
        return (
            self.misses_per_request(cpu_ms_ref)
            * self.degraded_miss_latency_us / 1000.0
        )

    def failover_time_ms(
        self,
        cpu_ms_ref: float,
        direct_fraction: float,
        failover_fraction: float,
        amplification: float,
    ) -> float:
        """Link transfer time with part of the page set failed over.

        ``direct_fraction`` of misses pay the normal per-page transfer;
        ``failover_fraction`` are served from surviving replicas or
        reconstructed stripes at ``amplification`` transfers per page
        (1.0 for a replica read, k for a k+1 parity reconstruction).
        All of it still crosses the shared blade-controller link.
        """
        return self.link_time_ms(cpu_ms_ref) * (
            direct_fraction + failover_fraction * amplification
        )

    def residual_degraded_time_ms(
        self, cpu_ms_ref: float, lost_fraction: float
    ) -> float:
        """Swap-path penalty for the unrecoverable slice of the page set.

        Pages whose every replica is gone behave exactly like the
        blade-down mode of :meth:`degraded_time_ms`, scaled down to the
        lost fraction; the rest of the working set stays remote.
        """
        return self.degraded_time_ms(cpu_ms_ref) * lost_fraction


@lru_cache(maxsize=None)
def make_remote_memory_model(
    workload_name: str,
    local_fraction: float = 0.25,
    page_latency_us: float = PCIE_X4_PAGE_LATENCY_US,
    policy: str = "random",
    trace_length: int | None = None,
) -> RemoteMemoryModel:
    """A model with the miss rate measured by the trace simulator, built
    once per process for each distinct set of arguments.

    ``policy="lru"`` reads the rate off the workload's memoized
    single-pass miss-ratio curve (``repro.perf.kernels``); the default
    random policy replays the trace once.  The model is frozen, so every
    caller can share it.
    """
    try:
        spec = WORKLOAD_TRACES[workload_name]
    except KeyError as exc:
        raise KeyError(
            f"no memory trace for workload {workload_name!r}; "
            f"known: {sorted(WORKLOAD_TRACES)}"
        ) from exc
    stats = TwoLevelMemorySimulator(
        spec, local_fraction, policy=policy
    ).run(trace_length)
    return RemoteMemoryModel(
        workload_name=workload_name,
        local_fraction=local_fraction,
        page_latency_us=page_latency_us,
        miss_rate=stats.miss_rate,
        touches_per_ms=spec.touches_per_ms,
    )
