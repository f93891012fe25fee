"""Storage device models, including Table 3(a)'s flash and disk parameters.

Table 3(a) of the paper lists four devices::

                 Flash     Laptop disk  Laptop-2 disk  Desktop disk
    Bandwidth    50 MB/s   20 MB/s      20 MB/s        70 MB/s
    Access time  20us rd / 15 ms avg    15 ms avg      4 ms avg
                 200us wr /
                 1.2ms erase
    Locality     (on-board) (remote)    (remote)       (local)
    Capacity     1 GB      200 GB       200 GB         500 GB
    Power (W)    0.5       2            2              10
    Price        $14       $80          $40            $120

``SERVER_DISK_15K`` models srvr1's 15k-RPM enterprise disk (not in Table 3
but implied by the Table 2 description).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class StorageKind(enum.Enum):
    DISK = "disk"
    FLASH = "flash"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class StorageLocation(enum.Enum):
    """Whether the device is local to the server or reached over a SAN."""

    LOCAL = "local"
    REMOTE = "remote"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class StorageDevice:
    """One storage device with the paper's Table 3(a) parameters.

    ``read_latency_ms``/``write_latency_ms`` are average per-access times
    (seek + rotation for disks; array access for flash).  Flash has an
    additional erase penalty and a finite per-block write endurance
    (the paper cites ~100,000 writes for contemporary NAND).
    """

    name: str
    kind: StorageKind
    bandwidth_mb_s: float
    read_latency_ms: float
    write_latency_ms: float
    capacity_gb: float
    power_w: float
    price_usd: float
    location: StorageLocation = StorageLocation.LOCAL
    erase_latency_ms: float = 0.0
    write_endurance: int = 0  # writes per block; 0 means effectively unlimited

    def __post_init__(self) -> None:
        if self.bandwidth_mb_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.read_latency_ms < 0 or self.write_latency_ms < 0:
            raise ValueError("latencies must be >= 0")
        if self.capacity_gb <= 0:
            raise ValueError("capacity must be positive")
        if self.power_w < 0 or self.price_usd < 0:
            raise ValueError("power and price must be >= 0")

    @property
    def is_flash(self) -> bool:
        return self.kind is StorageKind.FLASH

    def access_time_ms(self, bytes_transferred: float, write: bool = False) -> float:
        """Average service time for one access of the given size."""
        if bytes_transferred < 0:
            raise ValueError("transfer size must be >= 0")
        latency = self.write_latency_ms if write else self.read_latency_ms
        transfer_ms = bytes_transferred / (self.bandwidth_mb_s * 1000.0)
        return latency + transfer_ms


#: Table 3(a): local desktop-class 7.2k RPM disk (the baseline in §3.5).
DESKTOP_DISK = StorageDevice(
    name="desktop-disk",
    kind=StorageKind.DISK,
    bandwidth_mb_s=70.0,
    read_latency_ms=4.0,
    write_latency_ms=4.0,
    capacity_gb=500.0,
    power_w=10.0,
    price_usd=120.0,
)

#: Table 3(a): low-power laptop disk on a remote SAN.
LAPTOP_DISK = StorageDevice(
    name="laptop-disk",
    kind=StorageKind.DISK,
    bandwidth_mb_s=20.0,
    read_latency_ms=15.0,
    write_latency_ms=15.0,
    capacity_gb=200.0,
    power_w=2.0,
    price_usd=80.0,
    location=StorageLocation.REMOTE,
)

#: Table 3(a): hypothetical cheaper laptop disk ("laptop-2", $40).
LAPTOP2_DISK = StorageDevice(
    name="laptop-2-disk",
    kind=StorageKind.DISK,
    bandwidth_mb_s=20.0,
    read_latency_ms=15.0,
    write_latency_ms=15.0,
    capacity_gb=200.0,
    power_w=2.0,
    price_usd=40.0,
    location=StorageLocation.REMOTE,
)

#: Table 3(a): 1 GB on-board NAND flash used as a disk cache.
FLASH_1GB = StorageDevice(
    name="flash-1gb",
    kind=StorageKind.FLASH,
    bandwidth_mb_s=50.0,
    read_latency_ms=0.020,
    write_latency_ms=0.200,
    capacity_gb=1.0,
    power_w=0.5,
    price_usd=14.0,
    erase_latency_ms=1.2,
    write_endurance=100_000,
)

#: srvr1's enterprise 15k RPM disk (Table 2: "15k RPM disk").
SERVER_DISK_15K = StorageDevice(
    name="server-disk-15k",
    kind=StorageKind.DISK,
    bandwidth_mb_s=90.0,
    read_latency_ms=3.0,
    write_latency_ms=3.0,
    capacity_gb=300.0,
    power_w=15.0,
    price_usd=275.0,
)
