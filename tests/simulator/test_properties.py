"""Property-based tests on simulator invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms.catalog import platform, platform_names
from repro.simulator.analytic import AnalyticServerModel, mva_throughput
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.suite import benchmark_names, make_workload
from tests.simulator.engine import Simulation
from tests.simulator.resources import Resource


class TestMvaProperties:
    @given(
        demands=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100.0),
                st.integers(min_value=1, max_value=16),
            ),
            min_size=1,
            max_size=5,
        ),
        population=st.integers(min_value=1, max_value=200),
        think=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_throughput_bounded_by_every_station(self, demands, population, think):
        x = mva_throughput(demands, population, think)
        for demand, servers in demands:
            assert x <= servers / demand + 1e-9
        # Also bounded by the no-queueing limit.
        total = sum(d for d, _ in demands) + think
        assert x <= population / total + 1e-9

    @given(
        demand=st.floats(min_value=0.1, max_value=50.0),
        servers=st.integers(min_value=1, max_value=8),
        population=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_servers_never_hurt(self, demand, servers, population):
        x1 = mva_throughput([(demand, servers)], population)
        x2 = mva_throughput([(demand, servers + 1)], population)
        assert x2 >= x1 - 1e-9


class TestResourceConservation:
    @given(
        services=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=80
        ),
        servers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_jobs_complete_and_busy_time_conserved(self, services, servers):
        sim = Simulation()
        resource = Resource(sim, "r", servers)
        done = []
        for i, service in enumerate(services):
            resource.acquire(service, lambda i=i: done.append(i))
        sim.run()
        assert sorted(done) == list(range(len(services)))
        assert resource.stats.completions == len(services)
        assert resource.stats.busy_time_ms == pytest.approx(sum(services))
        # Makespan >= total work / servers (no work invented).
        assert sim.now >= sum(services) / servers - 1e-9


class TestServerSimInvariants:
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_every_benchmark_runs_on_every_platform(self, bench):
        """Smoke matrix: 5 benchmarks x 6 platforms, small windows."""
        workload = make_workload(bench)
        config = SimConfig(warmup_requests=40, measure_requests=200, seed=3)
        for name in platform_names():
            result = ServerSimulator(
                platform(name), workload, population=8, config=config
            ).run()
            assert result.throughput_rps > 0, (bench, name)
            assert result.mean_response_ms > 0
            assert 0 < result.qos_percentile_ms or result.qos_percentile_ms >= 0

    def test_throughput_scales_down_with_uniform_slowdown(self, emb1):
        """A k-times CPU slowdown cannot speed anything up."""
        workload = make_workload("webmail")
        config = SimConfig(warmup_requests=60, measure_requests=400, seed=4)
        xs = [
            ServerSimulator(
                emb1, workload, population=16, config=config,
                memory_slowdown=factor,
            ).run().throughput_rps
            for factor in (1.0, 1.25, 1.5, 2.0)
        ]
        for a, b in zip(xs, xs[1:]):
            assert b <= a * 1.02


class TestAnalyticConsistency:
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_saturation_dominates_any_population(self, bench):
        workload = make_workload(bench)
        model = AnalyticServerModel(platform("desk"), workload)
        saturation = model.saturation_rps()
        for population in (1, 8, 64, 256):
            assert model.throughput_rps(population) <= saturation * 1.001
