"""DES validation against closed-form queueing results."""

import random

import pytest

from repro.platforms.catalog import platform
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.base import (
    MetricKind,
    PopulationPolicy,
    Request,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from tests.simulator.reference_queueing import (
    erlang_c,
    interactive_response_law,
    md1_mean_wait,
    mg1_mean_wait,
    mm1_mean_wait,
    mm1k_blocking_probability,
    mm1k_mean_number,
    mm1k_mean_wait,
    mmm_mean_wait,
)


def _cpu_workload(sampler, mean_cpu_ms, think_ms=0.0):
    profile = WorkloadProfile(
        name="queueing-test",
        description="synthetic single-station workload",
        emphasizes="testing",
        metric_kind=MetricKind.RPS_QOS,
        mean_demand=ResourceDemand(cpu_ms_ref=mean_cpu_ms),
        population=PopulationPolicy(fixed=1),
        qos=None,
        think_time_ms=think_ms,
        inorder_ipc_factor=1.0,
    )
    return Workload(profile, sampler)


class TestClosedForms:
    def test_mm1_twice_md1(self):
        assert mm1_mean_wait(10.0, 0.5) == pytest.approx(2 * md1_mean_wait(10.0, 0.5))

    def test_mg1_interpolates(self):
        det = mg1_mean_wait(10.0, 0.5, 0.0)
        exp = mg1_mean_wait(10.0, 0.5, 1.0)
        assert det == pytest.approx(md1_mean_wait(10.0, 0.5))
        assert exp == pytest.approx(mm1_mean_wait(10.0, 0.5))

    def test_erlang_c_single_server_is_rho(self):
        assert erlang_c(1, 0.6) == pytest.approx(0.6)

    def test_erlang_c_known_value(self):
        # Classic table value: m=2, a=1 erlang -> P(wait) = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1_mean_wait(10.0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, 2.0)
        with pytest.raises(ValueError):
            interactive_response_law(0, 1.0, 0.0)


class TestDesAgainstClosedForms:
    def test_mm1_exponential_service(self):
        """Exponential CPU demand on the 1-core emb2 = M/M/1."""
        plat = platform("emb2")
        mean_cpu = 10.0
        service = plat.cpu_time_ms(mean_cpu, 0.0, 1.0)
        rho = 0.6

        def sampler(rng: random.Random) -> Request:
            return Request(
                demand=ResourceDemand(cpu_ms_ref=rng.expovariate(1.0 / mean_cpu))
            )

        workload = _cpu_workload(sampler, mean_cpu)
        result = ServerSimulator(
            plat, workload, arrival_rate_rps=rho / service * 1000.0,
            config=SimConfig(warmup_requests=3000, measure_requests=25_000, seed=31),
        ).run()
        expected = service + mm1_mean_wait(service, rho)
        assert result.mean_response_ms == pytest.approx(expected, rel=0.08)

    def test_mmm_exponential_service_on_two_cores(self):
        """Exponential demand on a 2-core platform = M/M/2 (Erlang C)."""
        plat = platform("emb1")
        mean_cpu = 10.0
        service = plat.cpu_time_ms(mean_cpu, 0.0)
        offered = 1.2  # erlangs across 2 servers -> rho = 0.6

        def sampler(rng: random.Random) -> Request:
            return Request(
                demand=ResourceDemand(cpu_ms_ref=rng.expovariate(1.0 / mean_cpu))
            )

        workload = _cpu_workload(sampler, mean_cpu)
        result = ServerSimulator(
            plat, workload, arrival_rate_rps=offered / service * 1000.0,
            config=SimConfig(warmup_requests=3000, measure_requests=25_000, seed=32),
        ).run()
        expected = service + mmm_mean_wait(2, service, offered)
        assert result.mean_response_ms == pytest.approx(expected, rel=0.08)

    def test_interactive_response_law_holds_in_closed_loop(self):
        """R = N/X - Z must hold exactly in any closed simulation."""
        plat = platform("desk")
        mean_cpu = 20.0
        think = 500.0

        def sampler(rng: random.Random) -> Request:
            return Request(
                demand=ResourceDemand(cpu_ms_ref=rng.expovariate(1.0 / mean_cpu))
            )

        workload = _cpu_workload(sampler, mean_cpu, think_ms=think)
        result = ServerSimulator(
            plat, workload, population=12,
            config=SimConfig(warmup_requests=2000, measure_requests=15_000, seed=33),
        ).run()
        # Compare cycle times (R + Z = N / X): the response time itself is
        # small relative to Z, so think-time sampling noise dominates a
        # direct R comparison.
        implied_r = interactive_response_law(
            12, result.throughput_rps / 1000.0, think
        )
        assert result.mean_response_ms + think == pytest.approx(
            implied_r + think, rel=0.02
        )


class TestMM1KClosedForms:
    def test_blocking_probability_known_values(self):
        # K=1 (no waiting room): P_block = rho / (1 + rho).
        assert mm1k_blocking_probability(0.5, 1) == pytest.approx(1.0 / 3.0)
        # rho -> 1 limit: uniform over K+1 states.
        assert mm1k_blocking_probability(1.0, 4) == pytest.approx(0.2)

    def test_blocking_vanishes_with_capacity_at_low_rho(self):
        assert mm1k_blocking_probability(0.5, 40) < 1e-11

    def test_overload_is_allowed_and_bounded(self):
        # Unlike the infinite-queue forms, rho >= 1 is meaningful.
        p = mm1k_blocking_probability(2.0, 10)
        assert 0.5 < p < 1.0
        # Carried load never exceeds the service rate.
        assert 2.0 * (1.0 - p) <= 1.0

    def test_mean_number_approaches_mm1_for_large_k(self):
        rho = 0.5
        assert mm1k_mean_number(rho, 60) == pytest.approx(rho / (1 - rho))

    def test_mean_wait_approaches_mm1_for_large_k(self):
        assert mm1k_mean_wait(10.0, 0.5, 60) == pytest.approx(
            mm1_mean_wait(10.0, 0.5)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1k_blocking_probability(-0.1, 5)
        with pytest.raises(ValueError):
            mm1k_blocking_probability(0.5, 0)
        with pytest.raises(ValueError):
            mm1k_mean_wait(0.0, 0.5, 5)

