"""Tests of the closed-loop server simulator."""

import pytest

from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.suite import make_workload


@pytest.fixture(scope="module")
def config():
    return SimConfig(warmup_requests=100, measure_requests=600, seed=5)


class TestServerSimulator:
    def test_produces_positive_throughput(self, srvr1, config):
        result = ServerSimulator(srvr1, make_workload("websearch"),
                                 population=16, config=config).run()
        assert result.throughput_rps > 0
        assert result.mean_response_ms > 0
        assert result.measured_requests == 600

    def test_deterministic_for_same_seed(self, emb1, config):
        runs = [
            ServerSimulator(emb1, make_workload("webmail"),
                            population=8, config=config).run()
            for _ in range(2)
        ]
        assert runs[0].throughput_rps == runs[1].throughput_rps
        assert runs[0].qos_percentile_ms == runs[1].qos_percentile_ms

    def test_different_seeds_differ(self, emb1):
        results = [
            ServerSimulator(
                emb1,
                make_workload("webmail"),
                population=8,
                config=SimConfig(warmup_requests=100, measure_requests=600, seed=s),
            ).run()
            for s in (1, 2)
        ]
        assert results[0].throughput_rps != results[1].throughput_rps

    def test_throughput_grows_then_saturates_with_population(self, emb1, config):
        workload = make_workload("websearch")
        x = {
            n: ServerSimulator(emb1, workload, population=n, config=config)
            .run()
            .throughput_rps
            for n in (2, 8, 64, 128)
        }
        assert x[8] > x[2]
        assert x[64] > x[8]
        # Saturation: doubling again buys little.
        assert x[128] < 1.15 * x[64]

    def test_latency_grows_with_population(self, emb1, config):
        workload = make_workload("websearch")
        r_small = ServerSimulator(emb1, workload, population=2, config=config).run()
        r_big = ServerSimulator(emb1, workload, population=64, config=config).run()
        assert r_big.mean_response_ms > r_small.mean_response_ms

    def test_memory_slowdown_reduces_throughput(self, emb1, config):
        workload = make_workload("mapred-wc")
        base = ServerSimulator(emb1, workload, config=config).run()
        slowed = ServerSimulator(
            emb1, workload, config=config, memory_slowdown=1.5
        ).run()
        assert slowed.throughput_rps < base.throughput_rps

    def test_default_population_from_policy(self, emb1):
        sim = ServerSimulator(emb1, make_workload("mapred-wc"))
        assert sim._population == 4 * emb1.cpu.total_cores

    def test_utilizations_are_fractions(self, srvr1, config):
        result = ServerSimulator(srvr1, make_workload("ytube"),
                                 population=100, config=config).run()
        for name, u in result.utilization.items():
            assert 0.0 <= u <= 1.0, name

    def test_faster_platform_higher_throughput(self, srvr1, emb1, config):
        workload = make_workload("webmail")
        fast = ServerSimulator(srvr1, workload, population=64, config=config).run()
        slow = ServerSimulator(emb1, workload, population=64, config=config).run()
        assert fast.throughput_rps > slow.throughput_rps

    def test_invalid_arguments(self, srvr1):
        with pytest.raises(ValueError):
            ServerSimulator(srvr1, make_workload("ytube"), population=0)
        with pytest.raises(ValueError):
            ServerSimulator(srvr1, make_workload("ytube"), memory_slowdown=0.5)
        with pytest.raises(ValueError):
            SimConfig(measure_requests=0)
