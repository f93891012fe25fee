"""Tests of the platform performance-scaling model."""

import random

import pytest

from repro.platforms.catalog import PLATFORMS, platform, platform_names
from repro.platforms.nic import GIGABIT, TEN_GIGABIT
from repro.workloads.suite import benchmark_names, make_workload


class TestCatalog:
    def test_six_platforms_in_order(self):
        assert platform_names() == ["srvr1", "srvr2", "desk", "mobl", "emb1", "emb2"]
        assert set(PLATFORMS) == set(platform_names())

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError):
            platform("nope")

    def test_table2_microarchitecture(self):
        assert platform("srvr1").cpu.total_cores == 8
        assert platform("srvr2").cpu.total_cores == 4
        assert platform("emb2").cpu.total_cores == 1
        assert not platform("emb2").cpu.is_out_of_order

    def test_nics_match_table2(self):
        assert platform("srvr1").nic is TEN_GIGABIT
        for name in ("srvr2", "desk", "mobl", "emb1", "emb2"):
            assert platform(name).nic is GIGABIT

    def test_all_systems_have_4gb(self):
        for name in platform_names():
            assert platform(name).memory.capacity_gb == 4.0


class TestCoreSpeed:
    def test_reference_core_speed_is_identity(self):
        """srvr1's core at zero cache sensitivity is the reference."""
        speed = platform("srvr1").core_speed(cache_sensitivity=0.0)
        assert speed == pytest.approx(2.6)

    def test_speed_ordering_follows_table2(self):
        speeds = [
            platform(n).core_speed(0.1) for n in ("srvr1", "desk", "mobl", "emb1", "emb2")
        ]
        assert speeds == sorted(speeds, reverse=True)

    def test_cache_sensitivity_penalizes_small_l2(self):
        desk = platform("desk")
        assert desk.core_speed(0.2) < desk.core_speed(0.0)
        # srvr1 is at the reference L2: no penalty at any sensitivity.
        assert platform("srvr1").core_speed(0.5) == pytest.approx(2.6)

    def test_inorder_ipc_override(self):
        emb2 = platform("emb2")
        assert emb2.core_speed(0.0, inorder_ipc_factor=0.8) > emb2.core_speed(
            0.0, inorder_ipc_factor=0.45
        )
        # Override is ignored for out-of-order cores.
        desk = platform("desk")
        assert desk.core_speed(0.0, inorder_ipc_factor=0.1) == desk.core_speed(0.0)


class TestCpuTime:
    def test_reference_time_is_demand(self):
        assert platform("srvr1").cpu_time_ms(40.0, 0.0) == pytest.approx(40.0)

    def test_slower_cores_take_longer(self):
        t_emb = platform("emb1").cpu_time_ms(40.0, 0.1)
        t_srv = platform("srvr1").cpu_time_ms(40.0, 0.1)
        assert t_emb > 2 * t_srv

    def test_stall_fraction_softens_scaling(self):
        emb1 = platform("emb1")
        scaled = emb1.cpu_time_ms(40.0, 0.1, stall_fraction=0.0)
        stalled = emb1.cpu_time_ms(40.0, 0.1, stall_fraction=0.3)
        assert stalled < scaled
        # On the reference platform the stall fraction changes nothing.
        assert platform("srvr1").cpu_time_ms(40.0, 0.0, stall_fraction=0.3) == (
            pytest.approx(40.0)
        )

    def test_stall_fraction_bounds(self):
        with pytest.raises(ValueError):
            platform("desk").cpu_time_ms(1.0, 0.0, stall_fraction=1.0)
        with pytest.raises(ValueError):
            platform("desk").cpu_time_ms(1.0, 0.0, stall_fraction=-0.1)


class TestServiceConstants:
    """The hoisted factors the simulation kernels read reproduce the
    per-request service-time methods bitwise."""

    @pytest.mark.parametrize("workload_name", benchmark_names())
    @pytest.mark.parametrize("name", platform_names())
    def test_constants_reproduce_service_times(self, name, workload_name):
        p = platform(name)
        workload = make_workload(workload_name)
        profile = workload.profile
        k = p.service_constants(
            profile.cache_sensitivity,
            profile.inorder_ipc_factor,
            profile.stall_fraction,
        )
        rng = random.Random(11)
        for _ in range(200):
            c, m, ios, dbytes, nbytes, _, _, _ = workload.fast_demand(rng)
            assert c * k.cpu_factor == p.cpu_time_ms(
                c,
                profile.cache_sensitivity,
                profile.inorder_ipc_factor,
                profile.stall_fraction,
            )
            assert m / k.mem_divisor == p.memory_channel_time_ms(m)
            for write in (False, True):
                latency = k.disk_write_latency_ms if write else k.disk_read_latency_ms
                assert ios * latency + dbytes / k.disk_bytes_per_ms == (
                    p.disk_time_ms(ios, dbytes, write=write)
                )
            assert k.nic_overhead_ms + nbytes / k.nic_bytes_per_ms == (
                p.net_time_ms(nbytes)
            )

    def test_stall_fraction_bounds(self):
        with pytest.raises(ValueError):
            platform("desk").service_constants(0.0, stall_fraction=1.0)


class TestOtherResources:
    def test_memory_channel_time_uses_technology_and_numa(self):
        srvr1 = platform("srvr1")  # FB-DIMM at 0.75 NUMA efficiency
        assert srvr1.memory_channel_time_ms(30.0) == pytest.approx(40.0)
        emb1 = platform("emb1")  # DDR2
        assert emb1.memory_channel_time_ms(30.0) == pytest.approx(37.5)

    def test_disk_time_combines_seeks_and_transfer(self):
        desk = platform("desk")
        assert desk.disk_time_ms(1.0, 70_000) == pytest.approx(5.0)

    def test_disk_time_rejects_negative_ios(self):
        with pytest.raises(ValueError):
            platform("desk").disk_time_ms(-1.0, 0.0)

    def test_net_time_scales_with_nic(self):
        t1 = platform("srvr2").net_time_ms(125_000)
        t10 = platform("srvr1").net_time_ms(125_000)
        assert t1 > 9 * t10
