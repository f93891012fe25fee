"""Tests of the disk-model strategies (section 3.5)."""

import random

import pytest

from repro.flashcache.analysis import disk_configuration
from repro.flashcache.models import (
    FLASH_OBJECT_PARAMS,
    FlashCachedDiskModel,
    LocalDiskModel,
    RemoteSanDiskModel,
)
from repro.platforms.storage import DESKTOP_DISK, LAPTOP_DISK
from repro.workloads.base import ResourceDemand

_READ = ResourceDemand(disk_ios=2.0, disk_bytes=700_000.0)
_WRITE = ResourceDemand(disk_ios=2.0, disk_bytes=700_000.0, disk_write=True)
_READ_IO = (_READ.disk_ios, _READ.disk_bytes, _READ.disk_write)
_WRITE_IO = (_WRITE.disk_ios, _WRITE.disk_bytes, _WRITE.disk_write)


class TestLocalDiskModel:
    def test_service_matches_device_math(self):
        model = LocalDiskModel(DESKTOP_DISK)
        # 2 seeks * 4 ms + 700 KB / 70 MB/s = 8 + 10 ms
        assert model.service_ms(*_READ_IO, random.Random(0)) == pytest.approx(18.0)
        assert model.mean_service_ms(_READ) == pytest.approx(18.0)


class TestRemoteSanDiskModel:
    def test_striping_divides_transfer_but_not_overhead(self):
        stripe1 = RemoteSanDiskModel(LAPTOP_DISK, stripe_width=1, san_overhead_ms=0.0)
        stripe2 = RemoteSanDiskModel(LAPTOP_DISK, stripe_width=2, san_overhead_ms=0.0)
        assert stripe2.mean_service_ms(_READ) == pytest.approx(
            stripe1.mean_service_ms(_READ) / 2
        )
        with_overhead = RemoteSanDiskModel(
            LAPTOP_DISK, stripe_width=2, san_overhead_ms=8.0
        )
        assert with_overhead.mean_service_ms(_READ) == pytest.approx(
            stripe2.mean_service_ms(_READ) + 16.0
        )

    def test_remote_slower_than_local_desktop(self):
        remote = RemoteSanDiskModel(LAPTOP_DISK)
        local = LocalDiskModel(DESKTOP_DISK)
        assert remote.mean_service_ms(_READ) > local.mean_service_ms(_READ)

    def test_validation(self):
        with pytest.raises(ValueError):
            RemoteSanDiskModel(LAPTOP_DISK, stripe_width=0)
        with pytest.raises(ValueError):
            RemoteSanDiskModel(LAPTOP_DISK, san_overhead_ms=-1.0)


class TestFlashCachedDiskModel:
    def _model(self, workload="websearch"):
        return FlashCachedDiskModel(RemoteSanDiskModel(LAPTOP_DISK), workload)

    def test_known_workloads_have_params(self):
        assert set(FLASH_OBJECT_PARAMS) == {
            "websearch", "webmail", "ytube", "mapred-wc", "mapred-wr",
        }
        with pytest.raises(KeyError):
            FlashCachedDiskModel(RemoteSanDiskModel(LAPTOP_DISK), "bogus")

    def test_hits_are_much_faster_than_misses(self):
        model = self._model()
        rng = random.Random(1)
        times = [model.service_ms(*_READ_IO, rng) for _ in range(3000)]
        hits = [t for t in times if t < 20.0]
        misses = [t for t in times if t >= 20.0]
        assert hits and misses
        assert max(hits) < min(misses)

    def test_observed_hit_rate_tracks_expected_bound(self):
        """The independent-reference estimate (hot head fits entirely) is
        an upper bound that warmed-up LRU approaches from below."""
        model = self._model()
        rng = random.Random(2)
        for _ in range(12_000):  # warm the cache
            model.service_ms(*_READ_IO, rng)
        before = (model.cache.stats.hits, model.cache.stats.lookups)
        for _ in range(12_000):
            model.service_ms(*_READ_IO, rng)
        hits = model.cache.stats.hits - before[0]
        lookups = model.cache.stats.lookups - before[1]
        observed = hits / lookups
        expected = model.expected_hit_rate()
        assert observed <= expected + 0.03
        assert observed > expected * 0.6

    def test_writes_pay_backing_disk(self):
        model = self._model("mapred-wr")
        rng = random.Random(3)
        backing = model.backing.mean_service_ms(_WRITE)
        assert model.service_ms(*_WRITE_IO, rng) == pytest.approx(backing)
        assert model.mean_service_ms(_WRITE) == pytest.approx(backing)

    def test_mean_service_blends_hit_and_miss(self):
        model = self._model()
        mean = model.mean_service_ms(_READ)
        backing = model.backing.mean_service_ms(_READ)
        assert mean < backing

    def test_scan_workloads_have_low_hit_rates(self):
        streaming = self._model("mapred-wc").expected_hit_rate()
        interactive = self._model("webmail").expected_hit_rate()
        assert streaming < interactive

    def test_zero_disk_demand_is_free(self):
        model = self._model()
        nothing = ResourceDemand()
        assert model.service_ms(
            nothing.disk_ios, nothing.disk_bytes, nothing.disk_write,
            random.Random(4),
        ) == 0.0

    def test_total_and_components_serve_alike(self):
        """Twin models fed one mixed stream -- reads, writes, requests
        without disk demand, and a fail/recover cycle -- one asked for
        the total, the other for the typed pieces, serve alike and end
        in the same state."""
        spec = disk_configuration("remote-laptop+flash").disk_spec("websearch")
        totals, parts = spec.build(), spec.build()
        totals_rng, parts_rng = random.Random(11), random.Random(11)
        stream = random.Random(5)
        for i in range(3000):
            if i == 1000:
                totals.fail()
                parts.fail()
            elif i == 1400:
                totals.recover()
                parts.recover()
            u = stream.random()
            if u < 0.1:
                request = (0.0, 0.0, False)
            elif u < 0.3:
                request = (2.0, 600_000.0, True)
            else:
                request = (1.5, stream.uniform(50_000.0, 900_000.0), False)
            assert totals.service_ms(*request, totals_rng) == sum(
                ms for _, _, ms in parts.service_components(*request, parts_rng)
            )
        assert totals.cache.stats == parts.cache.stats
        assert totals.cache.stats.hits > 0
        assert totals.bypassed_requests == parts.bypassed_requests > 0
        assert list(totals.cache._objects) == list(parts.cache._objects)
        assert totals.cache._slot_writes == parts.cache._slot_writes
        assert totals_rng.getstate() == parts_rng.getstate()

    def test_built_models_share_one_popularity_sampler(self):
        """The read-only Zipf CDF is built once per (objects, alpha);
        each build still gets its own cold cache."""
        spec = disk_configuration("remote-laptop+flash").disk_spec("websearch")
        first, second = spec.build(), spec.build()
        assert first._popularity is second._popularity
        assert first.cache is not second.cache
