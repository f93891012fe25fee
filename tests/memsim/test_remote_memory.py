"""Tests of the explicit remote-memory traffic model."""

import pytest

from repro.cluster.balancer import ClusterSimulator
from repro.memsim.remote_memory import (
    DEFAULT_TRAP_OVERHEAD_US,
    RemoteMemoryModel,
    make_remote_memory_model,
)
from repro.memsim.twolevel import CBF_PAGE_LATENCY_US, PCIE_X4_PAGE_LATENCY_US
from repro.platforms.catalog import platform
from repro.workloads.base import ResourceDemand
from repro.workloads.suite import make_workload

_DEMAND = ResourceDemand(cpu_ms_ref=40.0)


def _model(miss_rate=0.2, touches=55.0, **kw):
    return RemoteMemoryModel(
        workload_name="websearch",
        miss_rate=miss_rate,
        touches_per_ms=touches,
        **kw,
    )


class TestRemoteMemoryModel:
    def test_misses_scale_with_cpu_work(self):
        model = _model()
        small = model.misses_per_request(ResourceDemand(cpu_ms_ref=10.0).cpu_ms_ref)
        large = model.misses_per_request(ResourceDemand(cpu_ms_ref=40.0).cpu_ms_ref)
        assert large == pytest.approx(4 * small)

    def test_link_time_formula(self):
        model = _model(miss_rate=0.1, touches=50.0)
        # 50 * 40 * 0.1 = 200 misses * 4 us = 0.8 ms
        assert model.link_time_ms(_DEMAND.cpu_ms_ref) == pytest.approx(0.8)

    def test_trap_time_uses_cpu_overhead(self):
        model = _model(miss_rate=0.1, touches=50.0)
        assert model.trap_cpu_ms(_DEMAND.cpu_ms_ref) == pytest.approx(
            200 * DEFAULT_TRAP_OVERHEAD_US / 1000.0
        )

    def test_cbf_link_time_smaller(self):
        pcie = _model(page_latency_us=PCIE_X4_PAGE_LATENCY_US)
        cbf = _model(page_latency_us=CBF_PAGE_LATENCY_US)
        assert cbf.link_time_ms(_DEMAND.cpu_ms_ref) < pcie.link_time_ms(_DEMAND.cpu_ms_ref) / 4

    def test_validation(self):
        with pytest.raises(ValueError):
            _model(miss_rate=1.5)
        with pytest.raises(ValueError):
            _model(local_fraction=0.0)
        with pytest.raises(ValueError):
            _model(page_latency_us=-1.0)


class TestMakeRemoteMemoryModel:
    def test_builds_from_trace_simulation(self):
        # Short traces under-report capacity misses (warmup dominates);
        # use a couple of footprint passes.
        model = make_remote_memory_model("websearch", trace_length=200_000)
        assert 0.05 < model.miss_rate < 0.5
        assert model.touches_per_ms == 55.0

    def test_smaller_local_memory_more_misses(self):
        loose = make_remote_memory_model(
            "websearch", local_fraction=0.5, trace_length=80_000
        )
        tight = make_remote_memory_model(
            "websearch", local_fraction=0.125, trace_length=80_000
        )
        assert tight.miss_rate > loose.miss_rate

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            make_remote_memory_model("sort")

    def test_equal_calls_share_one_model(self):
        first = make_remote_memory_model(
            "webmail", local_fraction=0.25, trace_length=40_000
        )
        again = make_remote_memory_model(
            "webmail", local_fraction=0.25, trace_length=40_000
        )
        assert again is first


class TestClusterIntegration:
    def test_blade_contention_negligible_at_enclosure_scale(self):
        """The paper's simplification checked: <=8 servers per blade see
        no meaningful penalty from the shared link."""
        plat = platform("emb1")
        workload = make_workload("websearch")
        remote = make_remote_memory_model("websearch", trace_length=80_000)
        kwargs = dict(
            servers=8, clients_per_server=6,
            warmup_requests=150, measure_requests=1200,
        )
        contended = ClusterSimulator(
            plat, workload, remote_memory=remote, **kwargs
        ).run()
        baseline = ClusterSimulator(plat, workload, **kwargs).run()
        penalty = 1.0 - contended.per_server_rps / baseline.per_server_rps
        assert penalty < 0.08

    def test_saturated_blade_throttles_the_cluster(self):
        """Sanity check the mechanism: an artificially slow blade link
        becomes the bottleneck."""
        plat = platform("emb1")
        workload = make_workload("websearch")
        slow_blade = RemoteMemoryModel(
            workload_name="websearch",
            miss_rate=0.5,
            touches_per_ms=55.0,
            page_latency_us=100.0,  # pathological link
        )
        kwargs = dict(
            servers=4, clients_per_server=6,
            warmup_requests=150, measure_requests=1000,
        )
        throttled = ClusterSimulator(
            plat, workload, remote_memory=slow_blade, **kwargs
        ).run()
        baseline = ClusterSimulator(plat, workload, **kwargs).run()
        assert throttled.throughput_rps < 0.7 * baseline.throughput_rps
