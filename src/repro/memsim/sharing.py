"""Content-based page sharing and memory compression (section 3.4).

The paper lists further memory-blade optimizations it "opens up the
possibility of": memory compression (IBM MXT) and content-based page
sharing across blades (VMware ESX).  This module models both as capacity
multipliers on the remote pool:

- *Content-based sharing*: pages with identical content across the
  servers of one enclosure are stored once.  The dedup ratio follows a
  birthday-style model over content classes: a fraction of pages
  (zero pages, common binaries/libraries) is highly shareable and
  collapses across servers; the rest is unique.
- *Compression*: MXT-style 2:1-class compression on the remaining pages,
  at a small access-latency penalty (decompression on fetch), which
  matters little behind the PCIe transfer the blade already pays.

``effective_capacity_factor`` composes both: how many logical GB one
physical GB of blade DRAM can hold.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PageSharingModel:
    """Cross-server content dedup on the memory blade."""

    #: Fraction of pages that belong to shareable content classes
    #: (zero pages, shared binaries, common file-cache content).
    shareable_fraction: float = 0.30
    #: Servers attached to one blade (sharing pool width).
    servers: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.shareable_fraction <= 1:
            raise ValueError("shareable fraction must be in [0, 1]")
        if self.servers <= 0:
            raise ValueError("server count must be positive")

    def dedup_ratio(self) -> float:
        """Physical pages needed per logical page (<= 1).

        Shareable pages are stored once per enclosure instead of once per
        server; unique pages are stored in full.
        """
        shared_cost = self.shareable_fraction / self.servers
        unique_cost = 1.0 - self.shareable_fraction
        return shared_cost + unique_cost

    def capacity_multiplier(self) -> float:
        """Logical capacity per physical GB from sharing alone."""
        return 1.0 / self.dedup_ratio()


@dataclass(frozen=True)
class CompressionModel:
    """MXT-style compression of blade-resident pages."""

    #: Average compression ratio on compressible pages (2.0 = 2:1).
    compression_ratio: float = 2.0
    #: Fraction of pages that compress well (media/encrypted data do not).
    compressible_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.compression_ratio < 1.0:
            raise ValueError("compression ratio must be >= 1")
        if not 0 <= self.compressible_fraction <= 1:
            raise ValueError("compressible fraction must be in [0, 1]")

    def capacity_multiplier(self) -> float:
        """Logical capacity per physical GB from compression alone."""
        stored = (
            self.compressible_fraction / self.compression_ratio
            + (1.0 - self.compressible_fraction)
        )
        return 1.0 / stored


def effective_capacity_factor(
    sharing: PageSharingModel | None = None,
    compression: CompressionModel | None = None,
) -> float:
    """Logical blade GB per physical GB with both optimizations."""
    factor = 1.0
    if sharing is not None:
        factor *= sharing.capacity_multiplier()
    if compression is not None:
        factor *= compression.capacity_multiplier()
    return factor
