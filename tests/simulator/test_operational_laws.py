"""Operational laws on ``ServerSimulator``, closed and open loop.

Equality with the reference engines only proves that two engines agree.
These laws hold for any correct single-server simulation, so they check
the kernel against something that is not a copy of itself:

- utilization law, at every station: U_k = X * D_k / c_k, with the mean
  demand D_k and server count c_k of ``AnalyticServerModel``;
- closed loop (the response-time law): N = X * (R + Z);
- open loop, below saturation: X = lambda.

Each side is measured over a window of n completions, so sampling error
shrinks as 1/sqrt(n): the tolerance is K/sqrt(n) with one K for every
cell, plus N/n for the closed loop, whose window edges cut through up to
N requests in flight.
"""

from math import sqrt

import pytest

from repro.platforms.catalog import PLATFORMS, platform
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.suite import benchmark_names, make_workload

K = 3.0
CONFIG = SimConfig(warmup_requests=300, measure_requests=1000, seed=1)
STATIONS = ("cpu", "mem", "disk", "nic")


def assert_utilization_law(result, model):
    throughput = result.throughput_rps / 1000.0
    bound = K / sqrt(result.measured_requests)
    for station, (demand, servers) in zip(STATIONS, model.service_demands()):
        error = abs(result.utilization[station] - throughput * demand / servers)
        assert error <= bound, (station, error, bound)


@pytest.mark.parametrize("bench", benchmark_names())
@pytest.mark.parametrize("name", list(PLATFORMS))
def test_operational_laws(name, bench):
    plat, workload = platform(name), make_workload(bench)
    model = AnalyticServerModel(plat, workload)
    think = workload.profile.think_time_ms
    for population in (4, 32):
        result = ServerSimulator(
            plat, workload, population=population, config=CONFIG
        ).run()
        assert_utilization_law(result, model)
        n = result.measured_requests
        throughput = result.throughput_rps / 1000.0
        error = abs(throughput * (result.mean_response_ms + think) - population)
        bound = K / sqrt(n) + population / n
        assert error / population <= bound, (population, error / population, bound)
    for load in (0.5, 0.8):
        rate = load * model.saturation_rps()
        result = ServerSimulator(
            plat, workload, arrival_rate_rps=rate, config=CONFIG
        ).run()
        assert_utilization_law(result, model)
        error = abs(result.throughput_rps - rate) / rate
        bound = K / sqrt(result.measured_requests)
        assert error <= bound, (load, error, bound)
