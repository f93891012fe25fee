"""Disk-model strategies for the server simulator (section 3.5 configs).

Three strategies implement the simulator's :class:`DiskModel` protocol:

- :class:`LocalDiskModel` -- the baseline: every I/O hits the local disk.
- :class:`RemoteSanDiskModel` -- laptop disks consolidated in a SAN.  Data
  is striped across ``stripe_width`` spindles, so one request's transfer
  engages several disks; the model divides the request's disk work by the
  stripe width (throughput-exact, slightly conservative on queueing).
- :class:`FlashCachedDiskModel` -- a flash cache in front of any backing
  model.  Each request's disk working set is keyed by a Zipf-distributed
  object id drawn from the workload's dataset; hits are served at flash
  speed, misses go to the backing disk and populate the flash.

A :class:`DiskSpec` names one of these compositions as a frozen value:
models carry state (a flash cache warms up, fails and recovers), so
callers share, hash and pickle the spec and ``build()`` a fresh model
wherever one simulation needs it.

Reads benefit from the cache; writes are written through (they pay the
backing disk and add flash wear without avoiding disk traffic), matching
the FlashCache design the paper adopts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

#: One timed piece of a disk service: (span kind, label, service ms).
#: Kinds are span vocabulary ("disk" / "flash") so the tracer can type
#: each piece; the pieces of one request always sum to ``service_ms``.
ServiceComponent = Tuple[str, str, float]

from repro.flashcache.cache import FlashCache
from repro.platforms.storage import StorageDevice, FLASH_1GB
from repro.workloads.base import ResourceDemand
from repro.workloads.zipf import ZipfSampler

#: Default SAN stripe width (spindles engaged per request's data).
DEFAULT_STRIPE_WIDTH = 2
#: Per-I/O SAN protocol overhead (SATA tunneling + network hop), ms.
DEFAULT_SAN_OVERHEAD_MS = 8.0


def _device_service_ms(
    device: StorageDevice, ios: float, num_bytes: float, write: bool
) -> float:
    latency = device.write_latency_ms if write else device.read_latency_ms
    return ios * latency + num_bytes / (device.bandwidth_mb_s * 1000.0)


class LocalDiskModel:
    """Baseline: all I/O to one local disk."""

    def __init__(self, device: StorageDevice):
        self.device = device

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        return _device_service_ms(self.device, ios, num_bytes, write)

    def service_components(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> List[ServiceComponent]:
        """Typed breakdown of :meth:`service_ms` (identical RNG draws)."""
        return [("disk", "local-disk", self.service_ms(ios, num_bytes, write, rng))]

    def mean_service_ms(self, demand: ResourceDemand) -> float:
        """Expected service for a mean demand (analytic model support)."""
        return _device_service_ms(
            self.device, demand.disk_ios, demand.disk_bytes, demand.disk_write
        )


class RemoteSanDiskModel:
    """Laptop disks on a SAN, striped across ``stripe_width`` spindles.

    Striping divides the transfer work across spindles; the per-I/O SAN
    protocol overhead (SATA tunneling and the network hop) is serial and
    is paid per seek.
    """

    def __init__(
        self,
        device: StorageDevice,
        stripe_width: int = DEFAULT_STRIPE_WIDTH,
        san_overhead_ms: float = DEFAULT_SAN_OVERHEAD_MS,
    ):
        if stripe_width <= 0:
            raise ValueError("stripe width must be positive")
        if san_overhead_ms < 0:
            raise ValueError("SAN overhead must be >= 0")
        self.device = device
        self.stripe_width = stripe_width
        self.san_overhead_ms = san_overhead_ms

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        work = _device_service_ms(self.device, ios, num_bytes, write)
        return work / self.stripe_width + ios * self.san_overhead_ms

    def service_components(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> List[ServiceComponent]:
        """Typed breakdown of :meth:`service_ms` (identical RNG draws)."""
        return [("disk", "san", self.service_ms(ios, num_bytes, write, rng))]

    def mean_service_ms(self, demand: ResourceDemand) -> float:
        """Expected service for a mean demand (analytic model support)."""
        return self.service_ms(
            demand.disk_ios, demand.disk_bytes, demand.disk_write, None
        )


@dataclass(frozen=True)
class FlashObjectParams:
    """How a workload's disk traffic maps onto cacheable objects."""

    #: Disk-resident dataset size, GB.
    dataset_gb: float
    #: Zipf exponent of object popularity (low = scan-like, little reuse).
    zipf_alpha: float
    #: Mean object size, bytes (one request touches one object).
    object_bytes: float


#: Per-workload object models.  Dataset sizes follow Table 1 (websearch
#: 20 GB dataset with a hot disk-resident subset, webmail 7 GB of mail,
#: ytube a large video corpus, mapreduce a 5 GB corpus); reuse skew is
#: high for user-facing traffic and low for mapreduce scans.
FLASH_OBJECT_PARAMS: Dict[str, FlashObjectParams] = {
    "websearch": FlashObjectParams(dataset_gb=5.0, zipf_alpha=0.85, object_bytes=300_000),
    "webmail": FlashObjectParams(dataset_gb=7.0, zipf_alpha=0.95, object_bytes=375_000),
    "ytube": FlashObjectParams(dataset_gb=30.0, zipf_alpha=0.80, object_bytes=2_000_000),
    "mapred-wc": FlashObjectParams(dataset_gb=5.0, zipf_alpha=0.40, object_bytes=3_900_000),
    "mapred-wr": FlashObjectParams(dataset_gb=5.0, zipf_alpha=0.30, object_bytes=14_300_000),
}


def flash_object_params(workload_name: str) -> FlashObjectParams:
    """The object model of a named workload's disk traffic."""
    try:
        return FLASH_OBJECT_PARAMS[workload_name]
    except KeyError as exc:
        raise KeyError(
            f"no flash object params for workload {workload_name!r}"
        ) from exc


@lru_cache(maxsize=None)
def popularity_sampler(objects: int, alpha: float) -> ZipfSampler:
    """The object-popularity sampler of ``objects`` items at ``alpha``.

    Building one fills a CDF of every object (16-20k entries for the
    shipped workloads); it is read-only afterwards, so every flash model
    of the same object count and skew shares one per process.
    """
    return ZipfSampler(objects, alpha)


class FlashCachedDiskModel:
    """A flash cache in front of a backing disk model.

    The cache is a performance accelerator, not a correctness
    dependency: :meth:`fail` drops it out of the data path (every I/O
    takes the raw backing-disk path) and :meth:`recover` brings it back
    -- cold, since a failed module returns with no useful contents.
    """

    def __init__(
        self,
        backing,  # LocalDiskModel | RemoteSanDiskModel
        workload: Union[str, FlashObjectParams],
        flash_device: StorageDevice = FLASH_1GB,
    ):
        # A workload name, or the object model itself.
        params = (
            flash_object_params(workload) if isinstance(workload, str) else workload
        )
        self.backing = backing
        self.params = params
        self._flash_device = flash_device
        self.cache = FlashCache(flash_device, params.object_bytes)
        self.available = True
        #: Lookups served on the raw-disk path because the cache was down.
        self.bypassed_requests = 0
        objects = max(1, int(params.dataset_gb * (1 << 30) / params.object_bytes))
        self._popularity = popularity_sampler(objects, params.zipf_alpha)

    def fail(self) -> None:
        """Take the cache out of the data path (raw disk fallback)."""
        self.available = False

    def recover(self) -> None:
        """Bring the cache back into service with cold (empty) contents.

        Wear counters survive (it is the same physical module's
        lifetime), but the object index restarts empty.
        """
        stats = self.cache.stats
        self.cache = FlashCache(self._flash_device, self.params.object_bytes)
        self.cache.stats.block_writes = stats.block_writes
        self.available = True

    def expected_hit_rate(self) -> float:
        """Independent-reference hit-rate estimate (hot head fits in flash)."""
        return self._popularity.head_mass(self.cache.capacity_objects)

    def service_ms(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> float:
        # Single implementation: the typed breakdown below draws the same
        # RNG values and updates the same cache state, so traced runs
        # (which ask for components) and untraced runs (which ask for the
        # total) are stream-identical.
        return sum(
            ms for _, _, ms in self.service_components(ios, num_bytes, write, rng)
        )

    def service_components(
        self, ios: float, num_bytes: float, write: bool, rng: random.Random
    ) -> List[ServiceComponent]:
        """Typed breakdown of one request's disk service.

        Returns ``(span kind, label, ms)`` pieces summing to what
        :meth:`service_ms` reports for the same call: a flash hit is pure
        flash time, a miss is backing-disk time, and writes/bypasses take
        the raw disk path.
        """
        if num_bytes <= 0 and ios <= 0:
            return []
        backing = self.backing
        if not self.available:
            # Cache down: raw disk path.  The popularity sample is still
            # drawn so the request stream (and RNG state) is identical
            # with and without an operational cache.
            self._popularity.sample(rng)
            self.bypassed_requests += 1
            return [("disk", "cache-bypass",
                     backing.service_ms(ios, num_bytes, write, rng))]
        object_id = self._popularity.sample(rng)
        if write:
            # Write-through: disk pays full price; cached copy is updated.
            self.cache.write_update(object_id)
            return [("disk", "write-through",
                     backing.service_ms(ios, num_bytes, write, rng))]
        if self.cache.lookup(object_id):
            # Flash hit: serve the request's bytes from flash.
            scale = num_bytes / max(self.params.object_bytes, 1.0)
            return [("flash", "hit", self.cache.read_service_ms() * max(scale, 0.1))]
        service = backing.service_ms(ios, num_bytes, write, rng)
        self.cache.insert(object_id)
        return [("disk", "miss", service)]

    def mean_service_ms(self, demand: ResourceDemand) -> float:
        """Expected service for a mean demand (analytic model support)."""
        backing = self.backing.mean_service_ms(demand)
        if demand.disk_write:
            return backing
        hit_rate = self.expected_hit_rate()
        scale = max(demand.disk_bytes / max(self.params.object_bytes, 1.0), 0.1)
        flash = self.cache.read_service_ms() * scale
        return hit_rate * flash + (1.0 - hit_rate) * backing


@dataclass(frozen=True)
class DiskSpec:
    """A frozen, hashable, picklable description of one disk model.

    The backing ``device`` is a local disk, or a SAN disk striped across
    ``stripe_width`` spindles when that is set; a ``flash_device`` with
    the workload's ``flash_params`` puts a flash cache in front of it.
    Equal specs build models that behave identically from a cold start,
    so a spec can key a memo where a live model cannot.
    """

    device: StorageDevice
    #: SAN spindles engaged per request; None for a local disk.
    stripe_width: Optional[int] = None
    flash_device: Optional[StorageDevice] = None
    flash_params: Optional[FlashObjectParams] = None

    def __post_init__(self) -> None:
        if (self.flash_device is None) != (self.flash_params is None):
            raise ValueError("a flash cache needs both its device and its params")

    def build(self):
        """A fresh model (cold flash cache) for one simulation."""
        if self.stripe_width is None:
            backing = LocalDiskModel(self.device)
        else:
            backing = RemoteSanDiskModel(self.device, self.stripe_width)
        if self.flash_device is None:
            return backing
        return FlashCachedDiskModel(backing, self.flash_params, self.flash_device)
