"""Tests of the overload-protection mechanisms and their cluster wiring."""

import random

import pytest

from repro.cluster.balancer import ClusterSimulator, RetryPolicy
from repro.cluster.overload import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionVerdict,
    BreakerPolicy,
    BreakerState,
    BrownoutPolicy,
    CircuitBreaker,
    OverloadPolicy,
    RetryBudget,
    RetryBudgetPolicy,
    SurgeSchedule,
    TokenBucket,
)
from repro.platforms.catalog import platform
from repro.scenario import (
    OpenLoopSpec,
    Scenario,
    TierSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    run_scenario,
)
from repro.workloads.suite import make_workload


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=2)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # 10 tokens/s = one per 100 ms.
        assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(150.0)

    def test_time_must_be_monotonic(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1)
        bucket.try_acquire(50.0)
        with pytest.raises(ValueError):
            bucket.try_acquire(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestAdmissionController:
    def test_admits_when_idle(self):
        ctrl = AdmissionController(
            AdmissionPolicy(), slo_ms=500.0, rng=random.Random(1)
        )
        assert ctrl.admit(0.0) is AdmissionVerdict.ADMIT
        assert ctrl.shed_probability() == 0.0

    def test_sheds_once_delay_crosses_threshold(self):
        ctrl = AdmissionController(
            AdmissionPolicy(slo_fraction=0.5, ewma_alpha=1.0),
            slo_ms=500.0,
            rng=random.Random(1),
        )
        ctrl.observe_delay(200.0)  # below 250 ms threshold
        assert ctrl.shed_probability() == 0.0
        ctrl.observe_delay(500.0)  # 2x threshold -> full ramp
        assert ctrl.shed_probability() == pytest.approx(0.98)
        verdicts = [ctrl.admit(float(i)) for i in range(200)]
        shed = sum(1 for v in verdicts if v is AdmissionVerdict.SHED)
        assert shed > 150

    def test_rate_limit_precedes_shedding(self):
        ctrl = AdmissionController(
            AdmissionPolicy(rate_limit_rps=1.0, burst=1.0),
            slo_ms=500.0,
            rng=random.Random(1),
        )
        assert ctrl.admit(0.0) is AdmissionVerdict.ADMIT
        assert ctrl.admit(1.0) is AdmissionVerdict.RATE_LIMITED

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(rate_limit_rps=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AdmissionController(AdmissionPolicy(), slo_ms=0.0, rng=random.Random(1))


class TestRetryBudget:
    def test_budget_caps_amplification(self):
        budget = RetryBudget(RetryBudgetPolicy(token_ratio=0.25, burst=2.0))
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        # Four first attempts earn one retry token back (0.25 each).
        for _ in range(4):
            budget.note_request()
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_deposits_cap_at_burst(self):
        budget = RetryBudget(RetryBudgetPolicy(token_ratio=1.0, burst=3.0))
        for _ in range(10):
            budget.note_request()
        assert budget._tokens == 3.0


class TestCircuitBreaker:
    def _trip(self, breaker, now=0.0):
        for _ in range(breaker.policy.min_samples):
            breaker.record_failure(now)

    def test_trips_after_failure_window(self):
        breaker = CircuitBreaker(BreakerPolicy(min_samples=10, window=10))
        assert breaker.allow(0.0)
        self._trip(breaker)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(10.0)
        assert breaker.opens == 1

    def test_half_open_probe_closes_on_success(self):
        policy = BreakerPolicy(min_samples=10, window=10, open_ms=100.0,
                               half_open_probes=1)
        breaker = CircuitBreaker(policy)
        self._trip(breaker)
        assert breaker.allow(150.0)  # -> HALF_OPEN, one probe slot
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.note_dispatch(150.0)  # it is a probe
        assert not breaker.allow(151.0)  # probe slots exhausted
        breaker.record_success(160.0, probe=True)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(161.0)

    def test_half_open_probe_failure_reopens(self):
        policy = BreakerPolicy(min_samples=10, window=10, open_ms=100.0)
        breaker = CircuitBreaker(policy)
        self._trip(breaker)
        assert breaker.allow(150.0)
        breaker.note_dispatch(150.0)
        breaker.record_failure(160.0, probe=True)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert not breaker.allow(200.0)

    def test_transition_callback_sees_every_state(self):
        seen = []
        policy = BreakerPolicy(min_samples=10, window=10, open_ms=100.0)
        breaker = CircuitBreaker(
            policy, on_transition=lambda now, s: seen.append(s)
        )
        self._trip(breaker)
        breaker.allow(150.0)
        breaker.note_dispatch(150.0)
        breaker.record_success(160.0, probe=True)
        assert seen == [
            BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.CLOSED
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0.0)
        with pytest.raises(ValueError):
            BreakerPolicy(min_samples=30, window=20)


class TestPolicies:
    def test_unprotected_disables_every_layer(self):
        policy = OverloadPolicy.unprotected()
        assert policy.queue_cap is None
        assert not policy.deadline_shedding
        assert policy.admission is None
        assert policy.retry_budget is None
        assert policy.breaker is None
        assert policy.brownout is None

    def test_defaults_enable_every_layer(self):
        policy = OverloadPolicy()
        assert policy.queue_cap is not None
        assert policy.deadline_shedding
        assert None not in (
            policy.admission, policy.retry_budget, policy.breaker,
            policy.brownout,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(queue_cap=0)
        with pytest.raises(ValueError):
            BrownoutPolicy(demand_factor=0.0)
        with pytest.raises(ValueError):
            SurgeSchedule(base_rate_rps=0.0)
        with pytest.raises(ValueError):
            SurgeSchedule(base_rate_rps=1.0, surge_start_ms=10.0, surge_end_ms=5.0)

    def test_surge_schedule_rate(self):
        schedule = SurgeSchedule(
            base_rate_rps=10.0, surge_multiplier=4.0,
            surge_start_ms=100.0, surge_end_ms=200.0,
        )
        assert schedule.rate_rps(0.0) == 10.0
        assert schedule.rate_rps(100.0) == 40.0
        assert schedule.rate_rps(199.9) == 40.0
        assert schedule.rate_rps(200.0) == 10.0


class TestRetryJitter:
    def test_jitter_draws_below_deterministic_ceiling(self):
        policy = RetryPolicy(jitter=True, backoff_base_ms=10.0, backoff_factor=2.0)
        rng = random.Random(5)
        ceiling = 10.0 * 2.0**2
        draws = [policy.backoff_ms(2, rng) for _ in range(100)]
        assert all(0.0 <= d <= ceiling for d in draws)
        assert len(set(draws)) > 1  # actually random

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(jitter=True)
        a = [policy.backoff_ms(1, random.Random(9)) for _ in range(3)]
        b = [policy.backoff_ms(1, random.Random(9)) for _ in range(3)]
        assert a == b

    def test_no_rng_falls_back_to_deterministic(self):
        policy = RetryPolicy(jitter=True, backoff_base_ms=10.0)
        assert policy.backoff_ms(0) == 10.0
        assert RetryPolicy().backoff_ms(1) == 20.0


def _surge_cluster(overload, retry, servers=2, seed=3, base_rate=None):
    plat = platform("srvr1")
    workload = make_workload("websearch")
    base = base_rate if base_rate is not None else 100.0
    schedule = SurgeSchedule(
        base_rate_rps=base, surge_multiplier=5.0,
        surge_start_ms=3000.0, surge_end_ms=6000.0,
    )
    return ClusterSimulator(
        plat, workload, servers=servers, clients_per_server=1, seed=seed,
        retry=retry, overload=overload, arrivals=schedule,
        warmup_ms=1000.0, measure_ms=11_000.0,
    )


class TestClusterOverloadWiring:
    def test_open_loop_invariant_goodput_throughput_offered(self):
        result = _surge_cluster(OverloadPolicy(), RetryPolicy(jitter=True)).run()
        assert result.goodput_rps <= result.throughput_rps + 1e-9
        assert result.throughput_rps <= result.offered_rps + 1e-9
        assert result.offered_rps > 0

    def test_naive_surge_collapses_protected_recovers(self):
        naive = _surge_cluster(OverloadPolicy.unprotected(), RetryPolicy()).run()
        protected = _surge_cluster(OverloadPolicy(), RetryPolicy(jitter=True)).run()
        n, p = naive.overload_report, protected.overload_report
        pre_n = n.goodput.window_mean_rate_per_s(1000.0, 3000.0)
        post_n = n.goodput.window_mean_rate_per_s(8000.0, 12_000.0)
        pre_p = p.goodput.window_mean_rate_per_s(1000.0, 3000.0)
        post_p = p.goodput.window_mean_rate_per_s(8000.0, 12_000.0)
        assert post_n < 0.7 * pre_n  # metastable: stays collapsed
        assert post_p > 0.9 * pre_p  # protected: recovers
        assert protected.goodput_rps > 2.0 * naive.goodput_rps

    def test_protection_counters_fire_under_surge(self):
        result = _surge_cluster(OverloadPolicy(), RetryPolicy(jitter=True)).run()
        report = result.overload_report
        assert report.total_shed > 0
        assert report.brownout_requests > 0
        assert result.fault_report is not None
        assert result.fault_report.timeouts < 100

    def test_window_that_completes_nothing_misses_qos(self):
        # 50x analytic capacity and no admission control: the queues
        # never drain inside the window, so no response is measured.
        scenario = Scenario(
            name="collapsed",
            topology=TopologySpec(tiers=(
                TierSpec("web", design="N1", servers=2),)),
            workload=WorkloadSpec(benchmark="websearch"),
            traffic=TrafficSpec(open_loop=OpenLoopSpec(
                utilization=50.0, warmup_ms=100.0, measure_ms=2000.0)),
        )
        (record,) = run_scenario(scenario).runs
        result = record.result
        assert result.offered_rps > 3000
        assert result.throughput_rps == 0
        assert not result.qos_met

    def test_unprotected_report_counts_nothing(self):
        result = _surge_cluster(
            OverloadPolicy.unprotected(), RetryPolicy()
        ).run()
        report = result.overload_report
        assert report.total_shed == 0
        assert report.brownout_requests == 0
        assert report.breaker_opens == 0
        # ...but the telemetry is still there.
        assert report.offered.series()
        assert report.completed.series()

    def test_same_seed_same_result(self):
        a = _surge_cluster(OverloadPolicy(), RetryPolicy(jitter=True)).run()
        b = _surge_cluster(OverloadPolicy(), RetryPolicy(jitter=True)).run()
        assert a.goodput_rps == b.goodput_rps
        assert a.throughput_rps == b.throughput_rps
        assert a.overload_report.total_shed == b.overload_report.total_shed
        assert (
            a.overload_report.goodput.series()
            == b.overload_report.goodput.series()
        )

    def test_closed_loop_queue_cap_rejects(self):
        # 1 server, tiny queue cap, many clients, no retries: overflow
        # arrivals become errors and are counted as rejections.
        plat = platform("emb2")
        workload = make_workload("websearch")
        result = ClusterSimulator(
            plat, workload, servers=1, clients_per_server=40, seed=2,
            warmup_requests=100, measure_requests=600,
            retry=RetryPolicy(max_retries=0),
            overload=OverloadPolicy(
                queue_cap=4, admission=None, breaker=None, brownout=None,
                retry_budget=None, deadline_shedding=False,
            ),
        ).run()
        report = result.overload_report
        assert report.rejected_queue_full > 0
        assert result.goodput_rps <= result.throughput_rps + 1e-9

    def test_legacy_closed_loop_has_no_overload_report(self):
        plat = platform("emb2")
        workload = make_workload("websearch")
        result = ClusterSimulator(
            plat, workload, servers=1, clients_per_server=4, seed=2,
            warmup_requests=50, measure_requests=300,
        ).run()
        assert result.overload_report is None
        assert result.fault_report is None

    def test_open_loop_window_validation(self):
        plat = platform("emb2")
        workload = make_workload("websearch")
        with pytest.raises(ValueError):
            ClusterSimulator(
                plat, workload, servers=1, clients_per_server=1,
                arrivals=SurgeSchedule(base_rate_rps=10.0), measure_ms=0.0,
            )
