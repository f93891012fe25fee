"""Tests of the open-loop server simulation, incl. M/D/1 validation."""


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


def _constant_cpu_workload(cpu_ms: float) -> Workload:
    """Deterministic CPU-only workload: an M/D/1 queue on one core."""
    demand = ResourceDemand(cpu_ms_ref=cpu_ms)
    profile = WorkloadProfile(
        name="constant",
        description="deterministic single-station test workload",
        emphasizes="testing",
        metric_kind=MetricKind.RPS_QOS,
        mean_demand=demand,
        population=PopulationPolicy(fixed=1),
        qos=None,
        inorder_ipc_factor=1.0,  # keep emb2's service time deterministic
    )
    return Workload(profile, lambda rng: Request(demand=demand))


class TestMD1Validation:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_md1_formula(self, rho):
        """M/D/1: Wq = rho * s / (2 (1 - rho)); response = s + Wq.

        emb2 has one core, so a CPU-only deterministic workload is an
        exact M/D/1 queue.  The DES must match the closed form.
        """
        plat = platform("emb2")
        cpu_ref_ms = 10.0
        service = plat.cpu_time_ms(cpu_ref_ms, 0.0, 1.0)  # deterministic
        rate_per_ms = rho / service
        workload = _constant_cpu_workload(cpu_ref_ms)
        result = ServerSimulator(
            plat,
            workload,
            arrival_rate_rps=rate_per_ms * 1000.0,
            config=SimConfig(warmup_requests=2000, measure_requests=20_000, seed=6),
        ).run()
        expected_response = service + rho * service / (2 * (1 - rho))
        assert result.mean_response_ms == pytest.approx(expected_response, rel=0.06)

    def test_utilization_matches_offered_load(self):
        plat = platform("emb2")
        workload = _constant_cpu_workload(10.0)
        service = plat.cpu_time_ms(10.0, 0.0, 1.0)
        result = ServerSimulator(
            plat,
            workload,
            arrival_rate_rps=0.5 / service * 1000.0,
            config=SimConfig(warmup_requests=500, measure_requests=5000, seed=7),
        ).run()
        assert result.utilization["cpu"] == pytest.approx(0.5, abs=0.04)


class TestOpenLoopBehaviour:
    def test_latency_grows_with_offered_load(self):
        plat = platform("desk")
        from repro.workloads.suite import make_workload

        workload = make_workload("websearch")
        config = SimConfig(warmup_requests=150, measure_requests=1200, seed=8)
        low = ServerSimulator(plat, workload, arrival_rate_rps=10.0,
                              config=config).run()
        high = ServerSimulator(plat, workload, arrival_rate_rps=30.0,
                               config=config).run()
        assert high.mean_response_ms > low.mean_response_ms
        assert high.qos_percentile_ms > low.qos_percentile_ms

    def test_throughput_tracks_arrival_rate_below_saturation(self):
        plat = platform("desk")
        from repro.workloads.suite import make_workload

        workload = make_workload("webmail")
        result = ServerSimulator(
            plat, workload, arrival_rate_rps=8.0,
            config=SimConfig(warmup_requests=150, measure_requests=1500, seed=9),
        ).run()
        assert result.throughput_rps == pytest.approx(8.0, rel=0.1)

    def test_overload_raises(self):
        plat = platform("emb2")
        from repro.workloads.suite import make_workload

        workload = make_workload("webmail")
        with pytest.raises(RuntimeError, match="cannot sustain"):
            ServerSimulator(
                plat, workload, arrival_rate_rps=500.0,
                config=SimConfig(warmup_requests=100, measure_requests=1000, seed=10),
            ).run()

    def test_validation(self):
        plat = platform("desk")
        from repro.workloads.suite import make_workload

        with pytest.raises(ValueError):
            ServerSimulator(plat, make_workload("webmail"), arrival_rate_rps=0.0)
        with pytest.raises(ValueError):
            ServerSimulator(
                plat, make_workload("webmail"), arrival_rate_rps=1.0,
                memory_slowdown=0.9,
            )


class TestQueueCap:
    def test_no_cap_reports_no_drops(self):
        plat = platform("desk")
        from repro.workloads.suite import make_workload

        result = ServerSimulator(
            plat, make_workload("webmail"), arrival_rate_rps=8.0,
            config=SimConfig(warmup_requests=100, measure_requests=800, seed=12),
        ).run()
        assert result.dropped_requests == 0
        assert result.drop_rate == 0.0

    def test_cap_keeps_unsustainable_load_finite(self):
        """The overload that raises without a cap completes with one:
        excess arrivals are dropped and accounted, throughput saturates
        at the service capacity, and the run warns that the latency
        figures cover only the admitted minority."""
        plat = platform("emb2")
        workload = _constant_cpu_workload(10.0)
        service = plat.cpu_time_ms(10.0, 0.0, 1.0)
        with pytest.warns(RuntimeWarning, match="unsustainable"):
            result = ServerSimulator(
                plat, workload, arrival_rate_rps=4.0 / service * 1000.0,
                config=SimConfig(warmup_requests=300, measure_requests=3000,
                                 seed=13),
                queue_cap=5,
            ).run()
        assert result.drop_rate > 0.5
        # Carried load ~ the service rate, not the offered rate.
        assert result.throughput_rps <= 1000.0 / service * 1.05
        assert result.dropped_requests > 0

    def test_moderate_drops_do_not_warn(self):
        plat = platform("emb2")
        workload = _constant_cpu_workload(10.0)
        service = plat.cpu_time_ms(10.0, 0.0, 1.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            result = ServerSimulator(
                plat, workload, arrival_rate_rps=0.8 / service * 1000.0,
                config=SimConfig(warmup_requests=300, measure_requests=3000,
                                 seed=14),
                queue_cap=8,
            ).run()
        assert 0.0 < result.drop_rate < 0.5

    def test_validation(self):
        plat = platform("desk")
        from repro.workloads.suite import make_workload

        with pytest.raises(ValueError):
            ServerSimulator(
                plat, make_workload("webmail"), arrival_rate_rps=1.0,
                queue_cap=0,
            )
