"""Unit tests for storage devices (Table 3(a) validation)."""

import pytest

from repro.platforms.storage import (
    DESKTOP_DISK,
    FLASH_1GB,
    LAPTOP2_DISK,
    LAPTOP_DISK,
    SERVER_DISK_15K,
    StorageDevice,
    StorageKind,
    StorageLocation,
)


class TestTable3aValues:
    """Every number in Table 3(a)."""

    def test_flash(self):
        assert FLASH_1GB.bandwidth_mb_s == 50
        assert FLASH_1GB.read_latency_ms == pytest.approx(0.020)
        assert FLASH_1GB.write_latency_ms == pytest.approx(0.200)
        assert FLASH_1GB.erase_latency_ms == pytest.approx(1.2)
        assert FLASH_1GB.capacity_gb == 1
        assert FLASH_1GB.power_w == 0.5
        assert FLASH_1GB.price_usd == 14
        assert FLASH_1GB.write_endurance == 100_000

    def test_laptop_disks(self):
        for disk, price in ((LAPTOP_DISK, 80), (LAPTOP2_DISK, 40)):
            assert disk.bandwidth_mb_s == 20
            assert disk.read_latency_ms == 15
            assert disk.capacity_gb == 200
            assert disk.power_w == 2
            assert disk.price_usd == price
            assert disk.location is StorageLocation.REMOTE

    def test_desktop_disk(self):
        assert DESKTOP_DISK.bandwidth_mb_s == 70
        assert DESKTOP_DISK.read_latency_ms == 4
        assert DESKTOP_DISK.capacity_gb == 500
        assert DESKTOP_DISK.power_w == 10
        assert DESKTOP_DISK.price_usd == 120
        assert DESKTOP_DISK.location is not StorageLocation.REMOTE

    def test_server_disk_faster_than_desktop(self):
        assert SERVER_DISK_15K.read_latency_ms < DESKTOP_DISK.read_latency_ms
        assert SERVER_DISK_15K.bandwidth_mb_s > DESKTOP_DISK.bandwidth_mb_s


class TestAccessTime:
    def test_latency_plus_transfer(self):
        # 4 ms seek + 70 KB / (70 MB/s) = 4 + 1 ms
        assert DESKTOP_DISK.access_time_ms(70_000) == pytest.approx(5.0)

    def test_write_uses_write_latency(self):
        t_read = FLASH_1GB.access_time_ms(0)
        t_write = FLASH_1GB.access_time_ms(0, write=True)
        assert t_write == pytest.approx(0.2)
        assert t_read == pytest.approx(0.02)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DESKTOP_DISK.access_time_ms(-1)


class TestRelocated:
    def test_flash_kind_flag(self):
        assert FLASH_1GB.is_flash
        assert FLASH_1GB.kind is StorageKind.FLASH
        assert not DESKTOP_DISK.is_flash


class TestValidation:
    def test_rejects_bad_parameters(self):
        good = dict(
            name="d", kind=StorageKind.DISK, bandwidth_mb_s=10.0,
            read_latency_ms=1.0, write_latency_ms=1.0, capacity_gb=10.0,
            power_w=1.0, price_usd=10.0,
        )
        for key, bad in [
            ("bandwidth_mb_s", 0.0),
            ("read_latency_ms", -1.0),
            ("capacity_gb", 0.0),
            ("power_w", -1.0),
            ("price_usd", -1.0),
        ]:
            with pytest.raises(ValueError):
                StorageDevice(**{**good, key: bad})
