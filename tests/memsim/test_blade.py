"""Tests of the memory-blade controller: allocation and isolation."""

import pytest

from repro.memsim.blade import (
    IsolationError,
    MemoryBlade,
    PAGE_SIZE_BYTES,
    PCIE_PER_SERVER_COST_USD,
    PCIE_PER_SERVER_POWER_W,
)

_PAGE = bytes(PAGE_SIZE_BYTES)


@pytest.fixture
def blade():
    return MemoryBlade(capacity_gb=1.0)


class TestAllocation:
    def test_capacity_in_pages(self, blade):
        assert blade.capacity_pages == (1 << 30) // PAGE_SIZE_BYTES

    def test_allocate_and_track(self, blade):
        blade.allocate("server-a", 1000)
        blade.allocate("server-b", 2000)
        assert blade.allocated_pages == 3000
        assert blade.free_pages == blade.capacity_pages - 3000

    def test_overcommit_rejected(self, blade):
        with pytest.raises(MemoryError):
            blade.allocate("greedy", blade.capacity_pages + 1)

    def test_double_allocation_rejected(self, blade):
        blade.allocate("server-a", 10)
        with pytest.raises(ValueError):
            blade.allocate("server-a", 10)

    def test_nonpositive_allocation_rejected(self, blade):
        with pytest.raises(ValueError):
            blade.allocate("server-a", 0)


class TestIsolation:
    def test_unallocated_server_cannot_touch_pages(self, blade):
        with pytest.raises(IsolationError):
            blade.write_page("stranger", 0, _PAGE)

    def test_out_of_range_page_rejected(self, blade):
        blade.allocate("server-a", 10)
        with pytest.raises(IsolationError):
            blade.write_page("server-a", 10, _PAGE)
        with pytest.raises(IsolationError):
            blade.write_page("server-a", -1, _PAGE)

    def test_servers_cannot_see_each_others_data(self, blade):
        blade.allocate("server-a", 10)
        blade.allocate("server-b", 10)
        blade.write_page("server-a", 3, b"\x42" * PAGE_SIZE_BYTES)
        # Same page number, different server: nothing stored there.
        assert 3 not in blade.allocation_of("server-b").resident


class TestTransfers:
    def test_transfer_counters(self, blade):
        blade.allocate("server-a", 10)
        blade.write_page("server-a", 1, _PAGE)
        assert blade.transfers_to_blade == 1

    def test_wrong_page_size_rejected(self, blade):
        blade.allocate("server-a", 10)
        with pytest.raises(ValueError):
            blade.write_page("server-a", 1, b"short")


class TestPaperConstants:
    def test_pcie_overheads_match_paper(self):
        assert PCIE_PER_SERVER_COST_USD == 10.0
        assert PCIE_PER_SERVER_POWER_W == 1.45
