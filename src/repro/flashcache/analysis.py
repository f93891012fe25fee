"""The Table 3(b) disk-configuration study.

Four disk subsystems for the emb1 deployment target:

=====================  ==========================  ===========  ========
Configuration          Devices                     Disk HW      Disk W
=====================  ==========================  ===========  ========
baseline               local desktop disk          $120         10 W
remote-laptop          SAN laptop disk             $80          2 W
remote-laptop+flash    SAN laptop disk + 1GB flash $94          2.5 W
remote-laptop2+flash   SAN laptop-2 disk + flash   $54          2.5 W
=====================  ==========================  ===========  ========

Each configuration names its devices, hands out a frozen
:class:`~repro.flashcache.models.DiskSpec` per benchmark (flash caches
keep state per simulation run, so callers ``build()`` a fresh model from
the spec for each run), and gives the cost/power deltas applied to the
server bill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.costmodel.components import ComponentSpec
from repro.flashcache.models import (
    DEFAULT_STRIPE_WIDTH,
    DiskSpec,
    flash_object_params,
)
from repro.platforms.storage import (
    DESKTOP_DISK,
    FLASH_1GB,
    LAPTOP2_DISK,
    LAPTOP_DISK,
    StorageDevice,
)


@dataclass(frozen=True)
class DiskConfiguration:
    """One row of Table 3(b): devices and costs."""

    name: str
    description: str
    disk_cost_usd: float
    disk_power_w: float
    #: The disk itself: local, or on the SAN when ``stripe_width`` is set.
    device: StorageDevice
    stripe_width: Optional[int] = None
    #: Flash cache in front of the disk, if any.
    flash_device: Optional[StorageDevice] = None

    def disk_component(self) -> ComponentSpec:
        """The server bill's disk component under this configuration."""
        return ComponentSpec(cost_usd=self.disk_cost_usd, power_w=self.disk_power_w)

    def disk_spec(self, workload_name: str) -> DiskSpec:
        """The simulator disk model of one benchmark, as a frozen spec.

        A flash-cached configuration raises ``KeyError`` for a workload
        without flash object params.
        """
        return DiskSpec(
            device=self.device,
            stripe_width=self.stripe_width,
            flash_device=self.flash_device,
            flash_params=(
                None if self.flash_device is None
                else flash_object_params(workload_name)
            ),
        )


#: Table 3(b) configurations in paper order (baseline first).
DISK_CONFIGURATIONS: List[DiskConfiguration] = [
    DiskConfiguration(
        name="baseline",
        description="local desktop-class disk (the paper's normalization)",
        disk_cost_usd=DESKTOP_DISK.price_usd,
        disk_power_w=DESKTOP_DISK.power_w,
        device=DESKTOP_DISK,
    ),
    DiskConfiguration(
        name="remote-laptop",
        description="low-power laptop disk on a SAN",
        disk_cost_usd=LAPTOP_DISK.price_usd,
        disk_power_w=LAPTOP_DISK.power_w,
        device=LAPTOP_DISK,
        stripe_width=DEFAULT_STRIPE_WIDTH,
    ),
    DiskConfiguration(
        name="remote-laptop+flash",
        description="SAN laptop disk with a 1 GB flash disk cache",
        disk_cost_usd=LAPTOP_DISK.price_usd + FLASH_1GB.price_usd,
        disk_power_w=LAPTOP_DISK.power_w + FLASH_1GB.power_w,
        device=LAPTOP_DISK,
        stripe_width=DEFAULT_STRIPE_WIDTH,
        flash_device=FLASH_1GB,
    ),
    DiskConfiguration(
        name="remote-laptop2+flash",
        description="cheaper laptop-2 disk ($40) with a 1 GB flash cache",
        disk_cost_usd=LAPTOP2_DISK.price_usd + FLASH_1GB.price_usd,
        disk_power_w=LAPTOP2_DISK.power_w + FLASH_1GB.power_w,
        device=LAPTOP2_DISK,
        stripe_width=DEFAULT_STRIPE_WIDTH,
        flash_device=FLASH_1GB,
    ),
]

_BY_NAME: Dict[str, DiskConfiguration] = {c.name: c for c in DISK_CONFIGURATIONS}


def disk_configuration(name: str) -> DiskConfiguration:
    """Look up a Table 3(b) configuration by name."""
    try:
        return _BY_NAME[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown disk configuration {name!r}; known: {sorted(_BY_NAME)}"
        ) from exc


def flash_only_configuration(
    capacity_gb: float = 32.0,
    price_per_gb_usd: float = 14.0,
    power_w: float = 2.0,
) -> DiskConfiguration:
    """Flash as a full disk *replacement* (paper section 4 future work).

    Storage becomes a flash array sized to the working dataset: every
    access runs at flash service times (no seeks), at 2008-era NAND
    pricing of ~$14/GB -- so the capacity is bought at a steep premium
    over rotating disks.  Useful for exploring when the paper's "more
    study is needed of flash ... as a disk replacement" pays off.
    """
    if capacity_gb <= 0:
        raise ValueError("capacity must be positive")
    device = StorageDevice(
        name=f"flash-array-{capacity_gb:g}gb",
        kind=FLASH_1GB.kind,
        bandwidth_mb_s=FLASH_1GB.bandwidth_mb_s * 4,  # striped modules
        read_latency_ms=FLASH_1GB.read_latency_ms,
        write_latency_ms=FLASH_1GB.write_latency_ms,
        capacity_gb=capacity_gb,
        power_w=power_w,
        price_usd=capacity_gb * price_per_gb_usd,
        erase_latency_ms=FLASH_1GB.erase_latency_ms,
        write_endurance=FLASH_1GB.write_endurance,
    )
    return DiskConfiguration(
        name=f"flash-only-{capacity_gb:g}gb",
        description="flash array replacing the disk entirely",
        disk_cost_usd=device.price_usd,
        disk_power_w=device.power_w,
        device=device,
    )
