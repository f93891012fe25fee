"""Micro-benchmarks of the core machinery (multi-round timings).

Not tied to a paper artifact; these track the performance of the
substrates that every experiment is built on.
"""

import random

from repro.memsim.trace import WORKLOAD_TRACES
from repro.memsim.twolevel import TwoLevelMemorySimulator
from repro.flashcache.models import FlashCachedDiskModel, RemoteSanDiskModel
from repro.platforms.catalog import platform
from repro.platforms.storage import LAPTOP_DISK
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.base import ResourceDemand
from repro.workloads.suite import make_workload


def test_bench_des_run(benchmark):
    """One closed-loop DES run (websearch on srvr2, 1000 requests)."""
    plat = platform("srvr2")
    workload = make_workload("websearch")
    config = SimConfig(warmup_requests=100, measure_requests=900, seed=2)

    def run():
        return ServerSimulator(plat, workload, population=48, config=config).run()

    result = benchmark(run)
    assert result.throughput_rps > 0


def test_bench_mva_solve(benchmark):
    """Analytic MVA solve for one (platform, workload) pair."""
    model = AnalyticServerModel(platform("desk"), make_workload("webmail"))
    result = benchmark(lambda: model.throughput_rps(population=96))
    assert result > 0


def test_bench_workload_sampling(benchmark):
    """Drawing requests from the calibrated websearch sampler."""
    workload = make_workload("websearch")
    rng = random.Random(1)

    def draw_batch():
        return [workload.sample(rng) for _ in range(500)]

    batch = benchmark(draw_batch)
    assert len(batch) == 500


def test_bench_two_level_memory_trace(benchmark):
    """Trace-driven two-level memory simulation (webmail, short trace)."""
    sim = TwoLevelMemorySimulator(WORKLOAD_TRACES["webmail"], 0.25, policy="random")
    stats = benchmark(lambda: sim.run(60_000))
    assert stats.accesses > 0


def test_bench_flash_cache_lookups(benchmark):
    """Flash-cache service-time computation under Zipf traffic."""
    model = FlashCachedDiskModel(RemoteSanDiskModel(LAPTOP_DISK), "websearch")
    demand = ResourceDemand(disk_ios=1.5, disk_bytes=300_000.0)
    rng = random.Random(3)

    def serve_batch():
        return [
            model.service_ms(
                demand.disk_ios, demand.disk_bytes, demand.disk_write, rng
            )
            for _ in range(1000)
        ]

    times = benchmark(serve_batch)
    assert len(times) == 1000
