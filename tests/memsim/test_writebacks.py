"""Tests of eviction/writeback accounting in the two-level simulator."""

from repro.memsim.trace import WORKLOAD_TRACES
from repro.memsim.twolevel import TwoLevelMemorySimulator
from tests.memsim.reference_twolevel import LruPolicy, RandomPolicy


class TestEvictionCounters:
    def test_no_evictions_until_full(self):
        lru = LruPolicy(4)
        for page in range(4):
            lru.access(page)
        assert lru.evictions == 0
        lru.access(99)
        assert lru.evictions == 1

    def test_every_overflowing_miss_evicts(self):
        policy = RandomPolicy(3, seed=1)
        for page in range(10):
            policy.access(page)
        assert policy.evictions == 7

    def test_hits_never_evict(self):
        lru = LruPolicy(2)
        lru.access(1)
        lru.access(1)
        lru.access(1)
        assert lru.evictions == 0


class TestWritebackStats:
    def test_writebacks_tracked_in_window(self):
        spec = WORKLOAD_TRACES["websearch"]
        stats = TwoLevelMemorySimulator(spec, 0.25).run(150_000)
        assert stats.writebacks > 0

    def test_exclusive_design_writebacks_track_misses(self):
        """In steady state every fetch displaces a victim: writebacks
        approximately equal misses plus the window's cold fills."""
        spec = WORKLOAD_TRACES["websearch"]
        stats = TwoLevelMemorySimulator(spec, 0.25).run(300_000)
        assert stats.writebacks >= stats.misses
        # Bounded by misses + compulsory fills in the window.
        assert stats.writebacks <= stats.accesses

    def test_full_local_memory_never_writes_back(self):
        spec = WORKLOAD_TRACES["webmail"]
        stats = TwoLevelMemorySimulator(spec, 1.0).run(80_000)
        assert stats.writebacks == 0
        assert stats.misses + stats.writebacks == 0
