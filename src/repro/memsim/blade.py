"""The memory-blade architecture: allocation, isolation, page transfer.

The paper's memory blade is a remote memory pool attached over PCIe to
the servers in one enclosure.  A hardware controller on the blade manages
it: "sending pages to and receiving pages from the processor blades,
while enforcing the per-server memory allocation to provide security and
fault isolation."

This module implements that controller functionally: per-server capacity
allocations, page read/write with strict isolation checks, and transfer
accounting (used by tests and by the provisioning analysis to validate
capacity arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Page size used throughout the memory system (paper: page granularity).
PAGE_SIZE_BYTES = 4096

#: Per-server PCIe x4 connection cost and power (paper section 3.4:
#: "a per-server (x4 lane) cost of $10 and power consumption of 1.45 W").
PCIE_PER_SERVER_COST_USD = 10.0
PCIE_PER_SERVER_POWER_W = 1.45


class IsolationError(Exception):
    """A server touched a page outside its allocation."""


@dataclass
class BladeAllocation:
    """One server's slice of the blade pool."""

    server_id: str
    pages: int
    #: Pages currently swapped out to the blade by this server.
    resident: Dict[int, bytes] = field(default_factory=dict)


class MemoryBlade:
    """A remote memory pool shared by the servers of one enclosure."""

    def __init__(self, capacity_gb: float):
        if capacity_gb <= 0:
            raise ValueError("blade capacity must be positive")
        self.capacity_pages = int(capacity_gb * (1 << 30) / PAGE_SIZE_BYTES)
        self._allocations: Dict[str, BladeAllocation] = {}
        self.transfers_to_blade = 0
        self.transfers_from_blade = 0

    @property
    def allocated_pages(self) -> int:
        return sum(a.pages for a in self._allocations.values())

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.allocated_pages

    def allocate(self, server_id: str, pages: int) -> BladeAllocation:
        """Reserve ``pages`` for a server; rejects over-commitment."""
        if pages <= 0:
            raise ValueError("allocation must be positive")
        if server_id in self._allocations:
            raise ValueError(f"server {server_id!r} already has an allocation")
        if pages > self.free_pages:
            raise MemoryError(
                f"blade has {self.free_pages} free pages, requested {pages}"
            )
        allocation = BladeAllocation(server_id=server_id, pages=pages)
        self._allocations[server_id] = allocation
        return allocation

    def release(self, server_id: str) -> None:
        """Release a server's allocation (server decommissioned)."""
        self._allocations.pop(server_id, None)

    def allocation_of(self, server_id: str) -> Optional[BladeAllocation]:
        return self._allocations.get(server_id)

    def _check(self, server_id: str, page_number: int) -> BladeAllocation:
        allocation = self._allocations.get(server_id)
        if allocation is None:
            raise IsolationError(f"server {server_id!r} has no allocation")
        if not 0 <= page_number < allocation.pages:
            raise IsolationError(
                f"server {server_id!r} touched page {page_number} outside its "
                f"allocation of {allocation.pages} pages"
            )
        return allocation

    def write_page(self, server_id: str, page_number: int, data: bytes) -> None:
        """Victim page swapped out from a server's local memory."""
        if len(data) != PAGE_SIZE_BYTES:
            raise ValueError(f"pages are {PAGE_SIZE_BYTES} bytes")
        allocation = self._check(server_id, page_number)
        allocation.resident[page_number] = data
        self.transfers_to_blade += 1

    def read_page(self, server_id: str, page_number: int) -> bytes:
        """Remote page fetched into a server's local memory (exclusive:
        the page leaves the blade)."""
        allocation = self._check(server_id, page_number)
        try:
            data = allocation.resident.pop(page_number)
        except KeyError:
            # Never-written page: zero-filled, like fresh anonymous memory.
            data = bytes(PAGE_SIZE_BYTES)
        self.transfers_from_blade += 1
        return data
