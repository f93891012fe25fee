"""Tests of the flash cache: eviction, wear, lifetime."""

import pytest

from repro.flashcache.cache import FlashCache
from repro.platforms.storage import DESKTOP_DISK, FLASH_1GB


@pytest.fixture
def cache():
    # 1 GB flash, 64 MB objects -> 16 slots.
    return FlashCache(FLASH_1GB, object_bytes=64 * (1 << 20))


class TestFlashCache:
    def test_requires_flash_device(self):
        with pytest.raises(ValueError):
            FlashCache(DESKTOP_DISK, object_bytes=4096)

    def test_capacity_from_device_and_object_size(self, cache):
        assert cache.capacity_objects == 16

    def test_miss_then_hit(self, cache):
        assert not cache.lookup(3)
        cache.insert(3)
        assert cache.lookup(3)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self, cache):
        for obj in range(16):
            cache.insert(obj)
        cache.lookup(0)          # refresh object 0
        cache.insert(99)         # evicts LRU = object 1
        assert cache.lookup(0)
        assert not cache.lookup(1)
        assert cache.resident_objects == 16
        assert cache.stats.evictions == 1

    def test_reinsert_refreshes_without_eviction(self, cache):
        cache.insert(1)
        cache.insert(1)
        assert cache.stats.insertions == 1
        assert cache.resident_objects == 1

    def test_wear_counts_insertions_and_updates(self, cache):
        cache.insert(1)
        cache.write_update(1)
        cache.write_update(42)  # not resident: no wear
        assert cache.stats.block_writes == 2

    def test_flash_read_far_faster_than_disk_for_small_objects(self):
        """Flash wins on latency-dominated (small) objects; for huge
        streaming objects the desktop disk's higher bandwidth wins."""
        small = FlashCache(FLASH_1GB, object_bytes=256 * 1024)
        assert small.read_service_ms() < DESKTOP_DISK.access_time_ms(256 * 1024) / 1.4
        huge = FlashCache(FLASH_1GB, object_bytes=64 * (1 << 20))
        assert huge.read_service_ms() > DESKTOP_DISK.access_time_ms(64 * (1 << 20))


class TestLifetime:
    def test_lifetime_shrinks_with_write_rate(self, cache):
        slow = cache.estimated_lifetime_years(writes_per_second=1.0)
        fast = cache.estimated_lifetime_years(writes_per_second=100.0)
        assert slow == pytest.approx(100 * fast)

    def test_depreciation_cycle_survivable_at_realistic_rates(self):
        """The paper argues flash survives the 3-year cycle at disk-cache
        insert rates (tens of misses per second) -- but sustained heavy
        write traffic does wear it out, which is the paper's stated
        endurance concern."""
        cache = FlashCache(FLASH_1GB, object_bytes=4096)
        assert cache.estimated_lifetime_years(writes_per_second=50.0) > 3.0
        assert cache.estimated_lifetime_years(writes_per_second=5000.0) < 3.0

    def test_zero_rate_is_infinite(self, cache):
        assert cache.estimated_lifetime_years(0.0) == float("inf")
