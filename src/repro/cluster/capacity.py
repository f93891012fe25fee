"""Analytic per-server serving capacity (shared sizing helper).

EXT-10 and the scenario compiler both provision open-loop traffic as a
fraction of a cluster's *analytic* capacity; this module is the single
implementation so a scenario-compiled run and the hand-wired experiment
compute bit-identical arrival rates (the digest-equality contract).

With a remote-memory blade, the remote-miss trap handling is folded
into the CPU demand and the result is bounded by the shared blade link
(one link serves the whole cluster).
"""

from __future__ import annotations

from repro.simulator.performance import measure_performance


def per_server_capacity_rps(
    platform,
    workload,
    *,
    remote_memory=None,
    disk_spec=None,
    servers: int = 1,
) -> float:
    """Analytic steady-state capacity of one server, in requests/s."""
    slowdown = 1.0
    if remote_memory is not None:
        mean = workload.mean_demand()
        profile = workload.profile
        cpu_ms = platform.cpu_time_ms(
            mean.cpu_ms_ref,
            profile.cache_sensitivity,
            profile.inorder_ipc_factor,
            profile.stall_fraction,
        )
        slowdown = 1.0 + remote_memory.trap_cpu_ms(mean.cpu_ms_ref) / cpu_ms
    capacity = measure_performance(
        platform, workload, disk_spec=disk_spec,
        memory_slowdown=slowdown, method="analytic",
    ).throughput_rps
    if remote_memory is not None:
        link_ms = remote_memory.link_time_ms(workload.mean_demand().cpu_ms_ref)
        if link_ms > 0:
            capacity = min(capacity, 1000.0 / link_ms / servers)
    return capacity


def surge_queue_cap(capacity_rps: float, timeout_ms: float) -> int:
    """Protected-queue bound: a queue holds at most ~half the retry
    timeout's worth of per-server work, so even a full queue can still
    meet the deadline of the request at its tail (the EXT-10 rule)."""
    return max(4, int(capacity_rps * timeout_ms / 1000.0 * 0.5))


def open_loop_rate_rps(
    utilization: float,
    capacity_rps_per_server: float,
    servers: int,
) -> float:
    """Cluster offered load at a target utilization of analytic capacity."""
    return utilization * capacity_rps_per_server * servers


__all__ = [
    "per_server_capacity_rps",
    "surge_queue_cap",
    "open_loop_rate_rps",
]
