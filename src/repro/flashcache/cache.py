"""The flash disk cache: lookup, LRU eviction, and wear tracking.

The paper: "the flash holds any recently accessed pages from disk.  Any
time a page is not found in the OS's page cache, the flash cache is
searched by looking up in a software hash table."  Flash wears out after
roughly 100,000 writes per block with 2008-era NAND; the paper argues the
3-year depreciation cycle and software fault-tolerance still make flash
attractive, which the lifetime estimate here quantifies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.platforms.storage import StorageDevice


@dataclass
class FlashCacheStats:
    """Hit/miss and wear counters."""

    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Total block writes (wear): insertions + write-through updates.
    block_writes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FlashCache:
    """An LRU cache of disk objects held in NAND flash."""

    def __init__(self, device: StorageDevice, object_bytes: float):
        if not device.is_flash:
            raise ValueError("flash cache needs a flash device")
        if object_bytes <= 0:
            raise ValueError("object size must be positive")
        self.device = device
        self.object_bytes = object_bytes
        self._read_ms = device.access_time_ms(object_bytes, write=False)
        self.capacity_objects = max(
            1, int(device.capacity_gb * (1 << 30) / object_bytes)
        )
        self._objects: "OrderedDict[int, None]" = OrderedDict()
        #: Cumulative writes per cache slot index (coarse wear map).
        self._slot_writes: Dict[int, int] = {}
        self.stats = FlashCacheStats()

    def lookup(self, object_id: int) -> bool:
        """Hash-table lookup; refreshes LRU position on a hit."""
        self.stats.lookups += 1
        if object_id in self._objects:
            self._objects.move_to_end(object_id)
            self.stats.hits += 1
            return True
        return False

    def insert(self, object_id: int) -> None:
        """Install an object fetched from disk, evicting LRU if full."""
        if object_id in self._objects:
            self._objects.move_to_end(object_id)
            return
        if len(self._objects) >= self.capacity_objects:
            self._objects.popitem(last=False)
            self.stats.evictions += 1
        self._objects[object_id] = None
        self.stats.insertions += 1
        self._record_write()

    def write_update(self, object_id: int) -> None:
        """Write-through update of a cached object (wear, no population)."""
        if object_id in self._objects:
            self._objects.move_to_end(object_id)
            self._record_write()

    def export_metrics(self, metrics, **labels) -> None:
        """One-shot dump of the cache's counters into a labeled registry.

        ``metrics`` is a :class:`repro.obs.MetricsRegistry`; call once at
        the end of a run (counters would double-count if exported
        repeatedly into the same registry).
        """
        stats = self.stats
        metrics.counter("flash.lookups", **labels).inc(stats.lookups)
        metrics.counter("flash.hits", **labels).inc(stats.hits)
        metrics.counter("flash.insertions", **labels).inc(stats.insertions)
        metrics.counter("flash.evictions", **labels).inc(stats.evictions)
        metrics.counter("flash.block_writes", **labels).inc(stats.block_writes)
        metrics.gauge("flash.hit_rate", **labels).set(stats.hit_rate)
        metrics.gauge(
            "flash.resident_objects", **labels
        ).set(self.resident_objects)

    def _record_write(self) -> None:
        self.stats.block_writes += 1
        slot = self.stats.block_writes % self.capacity_objects
        self._slot_writes[slot] = self._slot_writes.get(slot, 0) + 1

    @property
    def resident_objects(self) -> int:
        return len(self._objects)

    def read_service_ms(self) -> float:
        """Service time to read one object from flash."""
        return self._read_ms

    def estimated_lifetime_years(self, writes_per_second: float) -> float:
        """Wear-leveled lifetime at a sustained write rate.

        With perfect wear leveling every block absorbs an equal share of
        writes; lifetime = endurance * capacity_objects / write rate.
        """
        if writes_per_second <= 0:
            return float("inf")
        if self.device.write_endurance <= 0:
            return float("inf")
        total_writes = self.device.write_endurance * self.capacity_objects
        seconds = total_writes / writes_per_second
        return seconds / (365.25 * 24 * 3600)
