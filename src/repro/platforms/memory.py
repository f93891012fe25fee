"""Memory-technology models: FB-DIMM, DDR2, DDR1, and low-power modes.

All six Table 2 systems carry 4 GB of memory, in the technology specific
to the platform (FB-DIMM for srvr1/srvr2, DDR2 for desk/mobl/emb1, DDR1
for emb2).  The memory-blade design of section 3.4 additionally exploits
DDR2's *active power-down* mode, which reduces device power by more than
90% at a 6-DRAM-cycle wake latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MemoryTechnology(enum.Enum):
    """DRAM technology generations used across the Table 2 systems."""

    FBDIMM = "FB-DIMM"
    DDR2 = "DDR2"
    DDR1 = "DDR1"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def bandwidth_factor(self) -> float:
        """Sustained per-channel bandwidth relative to FB-DIMM.

        FB-DIMM's buffered channels sustain higher bandwidth than the raw
        DDR2 devices they carry; DDR1 is roughly half of DDR2.
        """
        return {_T.FBDIMM: 1.0, _T.DDR2: 0.8, _T.DDR1: 0.4}[self]


_T = MemoryTechnology


@dataclass(frozen=True)
class MemoryConfig:
    """A server's memory subsystem: capacity, technology, channel count.

    ``numa_efficiency`` discounts per-channel throughput on multi-socket
    systems where cross-socket traffic and interleaving overheads keep the
    channels from being fully utilized (srvr1 uses 0.75).
    """

    capacity_gb: float
    technology: MemoryTechnology
    channels: int = 1
    numa_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity_gb <= 0:
            raise ValueError("memory capacity must be positive")
        if self.channels <= 0:
            raise ValueError("channel count must be positive")
        if not 0.0 < self.numa_efficiency <= 1.0:
            raise ValueError("numa_efficiency must be in (0, 1]")

    @property
    def channel_bandwidth_factor(self) -> float:
        """Effective per-channel bandwidth relative to one FB-DIMM channel."""
        return self.technology.bandwidth_factor * self.numa_efficiency
