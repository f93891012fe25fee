"""Platform composition: CPU + memory + storage + NIC.

A :class:`Platform` is the performance-relevant description of one Table 2
system.  The cost-relevant description is the matching
:class:`repro.costmodel.components.ServerBill`; the two are linked by name
through the catalogs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import NamedTuple

from repro.platforms.calibration import CalibrationConstants, DEFAULT_CALIBRATION
from repro.platforms.cpu import CpuModel
from repro.platforms.memory import MemoryConfig
from repro.platforms.nic import Nic
from repro.platforms.storage import StorageDevice


class ServiceConstants(NamedTuple):
    """Per-run factors of :class:`Platform`'s service-time formulas.

    For one workload profile, ``cpu_ms_ref * cpu_factor``,
    ``mem_ms_ref / mem_divisor``, ``ios * latency + bytes /
    disk_bytes_per_ms`` and ``nic_overhead_ms + bytes / nic_bytes_per_ms``
    are bitwise :meth:`Platform.cpu_time_ms`,
    :meth:`~Platform.memory_channel_time_ms`,
    :meth:`~Platform.disk_time_ms` and :meth:`~Platform.net_time_ms`:
    each factor is the sub-expression those methods evaluate that never
    depends on the request, so a simulation kernel hoists it out of its
    loop without changing a float.  ``cpu_factor`` is ``cpu_time_ms``
    of one reference millisecond, so the CPU formula has one home.
    """

    cpu_factor: float
    mem_divisor: float
    disk_read_latency_ms: float
    disk_write_latency_ms: float
    disk_bytes_per_ms: float
    nic_overhead_ms: float
    nic_bytes_per_ms: float


@dataclass(frozen=True)
class Platform:
    """One complete system configuration from Table 2."""

    name: str
    cpu: CpuModel
    memory: MemoryConfig
    disk: StorageDevice
    nic: Nic
    calibration: CalibrationConstants = DEFAULT_CALIBRATION

    def core_speed(
        self, cache_sensitivity: float, inorder_ipc_factor: float | None = None
    ) -> float:
        """Effective per-core speed in reference-GHz units.

        ``cache_sensitivity`` is the workload's exponent on L2 size (0 for
        cache-insensitive streaming workloads, larger for workloads with
        big instruction/data footprints such as websearch and webmail).
        ``inorder_ipc_factor`` optionally overrides the calibration's
        default in-order IPC penalty with a workload-specific one (in-order
        cores lose more on branchy pointer-chasing code than on streaming
        copies).  The reference core is srvr1's: 2.6 GHz, out-of-order,
        8 MB L2.
        """
        cal = self.calibration
        if self.cpu.is_out_of_order:
            ipc = cal.ipc_out_of_order
        else:
            ipc = inorder_ipc_factor if inorder_ipc_factor is not None else cal.ipc_in_order
        cache_factor = min(
            1.0, (self.cpu.l2_mb / cal.reference_l2_mb) ** max(0.0, cache_sensitivity)
        )
        return self.cpu.frequency_ghz * ipc * cache_factor

    def cpu_time_ms(
        self,
        cpu_ms_ref: float,
        cache_sensitivity: float,
        inorder_ipc_factor: float | None = None,
        stall_fraction: float = 0.0,
    ) -> float:
        """Per-request CPU service time on one of this platform's cores.

        ``cpu_ms_ref`` is the request's CPU demand expressed as
        milliseconds on the reference core.  ``stall_fraction`` is the
        share of that time spent in fixed-latency memory stalls, which
        does not shrink (or grow) with core speed -- slower cores lose
        proportionally fewer cycles to DRAM latency.
        """
        if not 0.0 <= stall_fraction < 1.0:
            raise ValueError("stall fraction must be in [0, 1)")
        speed = self.core_speed(cache_sensitivity, inorder_ipc_factor)
        scaling = self.calibration.reference_core_speed / speed
        return cpu_ms_ref * (stall_fraction + (1.0 - stall_fraction) * scaling)

    def service_constants(
        self,
        cache_sensitivity: float,
        inorder_ipc_factor: float | None = None,
        stall_fraction: float = 0.0,
    ) -> "ServiceConstants":
        """The per-run factors of the four service-time formulas for one
        workload profile (see :class:`ServiceConstants`)."""
        return ServiceConstants(
            # cpu_time_ms multiplies its argument by this factor last, and
            # ``1.0 * x`` is exact.
            cpu_factor=self.cpu_time_ms(
                1.0, cache_sensitivity, inorder_ipc_factor, stall_fraction
            ),
            mem_divisor=self.memory.channel_bandwidth_factor,
            disk_read_latency_ms=self.disk.read_latency_ms,
            disk_write_latency_ms=self.disk.write_latency_ms,
            disk_bytes_per_ms=self.disk.bandwidth_mb_s * 1000.0,
            nic_overhead_ms=self.nic.per_transfer_overhead_ms,
            nic_bytes_per_ms=self.nic.bandwidth_mb_s * 1000.0,
        )

    def memory_channel_time_ms(self, mem_ms_ref: float) -> float:
        """Per-request service time on one memory channel.

        ``mem_ms_ref`` is the request's memory-bus demand expressed as
        milliseconds on one reference (FB-DIMM) channel.
        """
        return mem_ms_ref / self.memory.channel_bandwidth_factor

    def disk_time_ms(self, ios: float, bytes_transferred: float, write: bool = False) -> float:
        """Per-request disk service time: ``ios`` seeks plus the transfer."""
        if ios < 0:
            raise ValueError("I/O count must be >= 0")
        latency = (
            self.disk.write_latency_ms if write else self.disk.read_latency_ms
        )
        return ios * latency + bytes_transferred / (self.disk.bandwidth_mb_s * 1000.0)

    def net_time_ms(self, num_bytes: float) -> float:
        """Per-request NIC service time."""
        return self.nic.transfer_time_ms(num_bytes)

    def with_disk(self, disk: StorageDevice) -> "Platform":
        """Return a copy using a different storage device (section 3.5)."""
        return _dc_replace(self, disk=disk)

    def with_memory(self, memory: MemoryConfig) -> "Platform":
        """Return a copy using a different memory config (section 3.4)."""
        return _dc_replace(self, memory=memory)
