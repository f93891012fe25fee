"""Tests of the Table 3(b) disk-configuration registry."""

import pytest

from repro.flashcache.analysis import (
    DISK_CONFIGURATIONS,
    disk_configuration,
)
from repro.flashcache.models import (
    DiskSpec,
    FlashCachedDiskModel,
    LocalDiskModel,
    RemoteSanDiskModel,
)
from repro.platforms.storage import DESKTOP_DISK, FLASH_1GB, LAPTOP2_DISK, LAPTOP_DISK


class TestDiskConfigurations:
    def test_four_configurations_in_paper_order(self):
        names = [c.name for c in DISK_CONFIGURATIONS]
        assert names == [
            "baseline",
            "remote-laptop",
            "remote-laptop+flash",
            "remote-laptop2+flash",
        ]

    def test_lookup_by_name(self):
        assert disk_configuration("baseline").disk_cost_usd == DESKTOP_DISK.price_usd
        with pytest.raises(KeyError):
            disk_configuration("ssd")

    def test_costs_match_device_prices(self):
        flash = disk_configuration("remote-laptop+flash")
        assert flash.disk_cost_usd == LAPTOP_DISK.price_usd + FLASH_1GB.price_usd
        assert flash.disk_power_w == LAPTOP_DISK.power_w + FLASH_1GB.power_w
        cheap = disk_configuration("remote-laptop2+flash")
        assert cheap.disk_cost_usd == LAPTOP2_DISK.price_usd + FLASH_1GB.price_usd

    def test_disk_component_reflects_costs(self):
        config = disk_configuration("remote-laptop")
        component = config.disk_component()
        assert component.cost_usd == 80.0
        assert component.power_w == 2.0

    def test_model_factories_build_correct_types(self):
        assert isinstance(
            disk_configuration("baseline").disk_spec("ytube").build(), LocalDiskModel
        )
        assert isinstance(
            disk_configuration("remote-laptop").disk_spec("ytube").build(),
            RemoteSanDiskModel,
        )
        flash_model = disk_configuration("remote-laptop+flash").disk_spec("ytube").build()
        assert isinstance(flash_model, FlashCachedDiskModel)

    def test_flash_spec_needs_flash_object_params(self):
        with pytest.raises(KeyError, match="no flash object params"):
            disk_configuration("remote-laptop+flash").disk_spec("bogus")
        assert disk_configuration("remote-laptop").disk_spec("bogus").flash_params is None

    def test_flash_spec_needs_device_and_params(self):
        with pytest.raises(ValueError, match="flash cache"):
            DiskSpec(LAPTOP_DISK, stripe_width=2, flash_device=FLASH_1GB)

    def test_factories_build_fresh_state_per_run(self):
        spec = disk_configuration("remote-laptop+flash").disk_spec("websearch")
        a = spec.build()
        b = spec.build()
        assert a is not b
        assert a.cache is not b.cache

    def test_flash_configs_use_low_power_devices(self):
        baseline = disk_configuration("baseline")
        for name in ("remote-laptop", "remote-laptop+flash", "remote-laptop2+flash"):
            assert disk_configuration(name).disk_power_w < baseline.disk_power_w
