"""Tests of the flash-as-disk-replacement extension (section 4)."""

import random

import pytest

from repro.flashcache.analysis import disk_configuration, flash_only_configuration
from repro.workloads.base import ResourceDemand

_READ = ResourceDemand(disk_ios=2.0, disk_bytes=700_000.0)
_READ_IO = (_READ.disk_ios, _READ.disk_bytes, _READ.disk_write)


class TestFlashOnlyConfiguration:
    def test_costs_scale_with_capacity(self):
        small = flash_only_configuration(capacity_gb=8.0)
        big = flash_only_configuration(capacity_gb=64.0)
        assert big.disk_cost_usd == pytest.approx(8 * small.disk_cost_usd)

    def test_default_32gb_at_2008_pricing(self):
        config = flash_only_configuration()
        assert config.disk_cost_usd == pytest.approx(448.0)
        assert config.disk_power_w == pytest.approx(2.0)

    def test_flash_storage_is_much_faster_than_disks(self):
        flash = flash_only_configuration().disk_spec("websearch").build()
        laptop = disk_configuration("remote-laptop").disk_spec("websearch").build()
        desktop = disk_configuration("baseline").disk_spec("websearch").build()
        rng = random.Random(1)
        t_flash = flash.service_ms(*_READ_IO, rng)
        assert t_flash < desktop.service_ms(*_READ_IO, rng) / 2
        assert t_flash < laptop.service_ms(*_READ_IO, rng) / 5

    def test_flash_replacement_costs_more_than_flash_cache(self):
        """The section 4 trade-off: full replacement buys speed at ~4x
        the disk subsystem cost of the cache-plus-laptop design."""
        replacement = flash_only_configuration()
        cached = disk_configuration("remote-laptop+flash")
        assert replacement.disk_cost_usd > 3 * cached.disk_cost_usd

    def test_validation(self):
        with pytest.raises(ValueError):
            flash_only_configuration(capacity_gb=0.0)
