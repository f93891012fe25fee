"""DMA I/O directly into second-level memory (section 4 enhancement).

"Our memory sharing design can be further improved by having DMA I/O
going directly to the second-level memory."  In the baseline design,
disk/network DMA lands in local memory; buffers that belong to the cold
working set are then evicted to the blade, paying the page transfer
*twice* (DMA-in then swap-out), and a later touch pays a third transfer
(swap-in).

With DMA-direct, I/O buffers destined for the cold set land on the blade
immediately: the swap-out disappears, and the I/O-triggered share of
remote misses is serviced as part of the (already-paid) I/O itself.

The model: a fraction ``io_buffer_fraction`` of remote-memory misses are
first touches of freshly-DMAed I/O buffers.  DMA-direct removes those
misses' transfer cost and the matching eviction traffic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DmaDirectModel:
    """Effect of blade-direct DMA on remote-paging overheads."""

    #: Share of remote misses caused by freshly-DMAed I/O buffers.
    io_buffer_fraction: float = 0.3
    #: Residual per-miss cost for DMA-direct pages (mapping updates),
    #: as a fraction of the full page-transfer latency.
    residual_cost_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0 <= self.io_buffer_fraction <= 1:
            raise ValueError("I/O buffer fraction must be in [0, 1]")
        if not 0 <= self.residual_cost_fraction <= 1:
            raise ValueError("residual cost fraction must be in [0, 1]")

    def effective_miss_cost_factor(self) -> float:
        """Mean per-miss cost relative to the non-DMA-direct design."""
        return (
            self.io_buffer_fraction * self.residual_cost_fraction
            + (1.0 - self.io_buffer_fraction)
        )
