"""Flash-based disk caching with low-power disks (paper section 3.5).

The design: laptop-class low-power disks move to a basic SAN (so server
blades need not physically fit a disk, enabling the microblade form
factor), and a 1 GB NAND flash module on each server board caches
recently accessed disk pages (after Kgil and Mudge's FlashCache).  On a
page-cache miss, a software hash table is consulted to see whether the
flash holds the page; only flash misses travel to the remote disk.

- :mod:`~repro.flashcache.cache` -- the flash cache proper: hash-table
  lookup, LRU eviction, write-endurance (wear) tracking.
- :mod:`~repro.flashcache.models` -- :class:`DiskModel` strategies for the
  server simulator: local disk, remote SAN disk, and remote disk behind a
  flash cache; :class:`DiskSpec` names one as a frozen value.
- :mod:`~repro.flashcache.analysis` -- the Table 3(b) evaluation:
  performance and cost efficiencies of each disk configuration on emb1.
"""

from repro.flashcache.cache import FlashCache, FlashCacheStats
from repro.flashcache.models import (
    FLASH_OBJECT_PARAMS,
    DiskSpec,
    FlashCachedDiskModel,
    LocalDiskModel,
    RemoteSanDiskModel,
    FlashObjectParams,
)
from repro.flashcache.analysis import (
    DISK_CONFIGURATIONS,
    DiskConfiguration,
    disk_configuration,
)

__all__ = [
    "FlashCache",
    "FlashCacheStats",
    "FLASH_OBJECT_PARAMS",
    "FlashObjectParams",
    "DiskSpec",
    "FlashCachedDiskModel",
    "LocalDiskModel",
    "RemoteSanDiskModel",
    "DISK_CONFIGURATIONS",
    "DiskConfiguration",
    "disk_configuration",
]
