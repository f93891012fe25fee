"""Cohort engine: digest equality, fallback routing, batched recording.

The vectorized serving-tier engine that :meth:`ClusterSimulator.run`
selects for eligible configurations must be *invisible* except for
wall-clock time: every supported configuration produces a
:meth:`ClusterResult.stream_digest` identical to the scalar event
loop's (``_run_scalar()``, the reference), and every unsupported
configuration routes to the scalar path with an explanatory
``fallback_reason`` rather than diverging.
"""

import pytest

from repro.cluster.balancer import ClusterSimulator, Dispatch, RetryPolicy
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.faults.failslow import DetectionPolicy, FailSlowPlan, SlowResource
from repro.faults.model import ComponentType, FaultProfile, FaultSpec
from repro.faults.recovery import (
    MaintenancePlan,
    MaintenanceWindow,
    RebuildPolicy,
    RedundancyConfig,
)
from repro.flashcache.analysis import disk_configuration
from repro.memsim.redundancy import RedundancyPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.perf.cluster_kernels import clamp_phase_delay, cohort_supported
from repro.platforms.catalog import platform
from repro.simulator.engine import PAST_EPSILON_MS, PAST_RELATIVE_EPSILON
from repro.workloads.websearch import make_websearch


def _surge(measure_ms=1500.0, base_rate_rps=120.0):
    return SurgeSchedule(
        base_rate_rps=base_rate_rps,
        surge_multiplier=4.0,
        surge_start_ms=500.0 + 0.25 * measure_ms,
        surge_end_ms=500.0 + 0.5 * measure_ms,
    )


def _simulator(**kwargs):
    defaults = dict(
        servers=3,
        clients_per_server=1,
        seed=11,
        arrivals=_surge(),
        warmup_ms=500.0,
        measure_ms=1500.0,
    )
    defaults.update(kwargs)
    return ClusterSimulator(platform("srvr1"), make_websearch(), **defaults)


def _run_pair(**kwargs):
    """Run the scalar reference and ``run()`` on the same config;
    return (sim, result) pairs."""
    scalar = _simulator(**kwargs)
    cohort = _simulator(**kwargs)
    return (scalar, scalar._run_scalar()), (cohort, cohort.run())


#: Open-loop configurations the cohort engine must reproduce bit-exactly.
EQUIVALENT_CONFIGS = {
    "bare": dict(retry=None),
    "naive-retry": dict(retry=RetryPolicy()),
    "bench-surge": dict(
        retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
        overload=OverloadPolicy(),
    ),
    # The cohort speedup budget's configuration in
    # benchmarks/test_budgets.py, spelled out.
    "cluster-surge": dict(
        retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
        overload=OverloadPolicy(),
        arrivals=SurgeSchedule(
            base_rate_rps=120.0,
            surge_multiplier=4.0,
            surge_start_ms=2000.0,
            surge_end_ms=3000.0,
        ),
        warmup_ms=1000.0,
        measure_ms=4000.0,
    ),
    "protected-jitter": dict(
        retry=RetryPolicy(
            timeout_ms=350.0, max_retries=2, backoff_base_ms=15.0, jitter=True
        ),
        overload=OverloadPolicy(),
    ),
    "hedge-heavy": dict(
        retry=RetryPolicy(
            timeout_ms=300.0, max_retries=2, hedge_after_ms=120.0
        ),
        overload=OverloadPolicy(),
    ),
    "round-robin": dict(
        retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
        overload=OverloadPolicy(),
        dispatch=Dispatch.ROUND_ROBIN,
    ),
    # No other entry runs a queue cap or fail-slow drift without retries.
    "capped-no-retry": dict(retry=None, overload=OverloadPolicy(queue_cap=8)),
    "failslow-no-retry": dict(
        retry=None,
        failslow=FailSlowPlan.single_slow_node(server=2, factor=5.0),
    ),
}


class TestDigestEquality:
    @pytest.mark.parametrize("name", sorted(EQUIVALENT_CONFIGS))
    def test_cohort_matches_scalar(self, name):
        kwargs = EQUIVALENT_CONFIGS[name]
        (_, scalar), (csim, cohort) = _run_pair(**kwargs)
        assert csim.engine_used == "cohort", csim.fallback_reason
        assert scalar.stream_digest() == cohort.stream_digest()

    def test_failslow_injection_and_detection(self):
        """Drift + peer-comparison detection run on the cohort path."""
        kwargs = dict(
            retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
            overload=OverloadPolicy(),
            failslow=FailSlowPlan.single_slow_node(
                server=1, factor=6.0, resource=SlowResource.CPU, at_ms=600.0
            ),
            failslow_detection=DetectionPolicy(
                eval_interval_ms=250.0, min_window_samples=4
            ),
            measure_ms=2000.0,
        )
        (_, scalar), (csim, cohort) = _run_pair(**kwargs)
        assert csim.engine_used == "cohort", csim.fallback_reason
        assert scalar.stream_digest() == cohort.stream_digest()
        # The detector actually ran (not just a no-op equality).
        sr, cr = scalar.failslow_report, cohort.failslow_report
        assert cr.evaluations > 0
        assert (cr.drifting_servers, cr.evaluations, cr.suspect_flags,
                cr.ejections, cr.readmissions, cr.requarantines) == (
            sr.drifting_servers, sr.evaluations, sr.suspect_flags,
            sr.ejections, sr.readmissions, sr.requarantines)

    def test_metrics_snapshots_match(self):
        """Batched record_many flushes observe exactly the scalar stream."""
        m_scalar, m_cohort = MetricsRegistry(), MetricsRegistry()
        kwargs = dict(
            retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
            overload=OverloadPolicy(),
        )
        scalar = _simulator(metrics=m_scalar, **kwargs)
        cohort = _simulator(metrics=m_cohort, **kwargs)
        rs, rc = scalar._run_scalar(), cohort.run()
        assert cohort.engine_used == "cohort", cohort.fallback_reason
        assert rs.stream_digest() == rc.stream_digest()
        assert m_scalar.snapshot() == m_cohort.snapshot()

    def test_engine_used_reported_on_scalar_runs(self):
        sim = _simulator(
            retry=None, measure_ms=400.0,
            tracer=Tracer(sample_rate=1.0, seed=17),
        )
        assert sim.engine_used is None and sim.fallback_reason is None
        sim.run()
        assert sim.engine_used == "scalar"
        assert sim.fallback_reason == "tracer attached"


class TestFallbackRouting:
    """Unsupported features run scalar, with the reason recorded."""

    def _assert_falls_back(self, reason_fragment, **kwargs):
        sim = _simulator(**kwargs)
        ok, reason = cohort_supported(sim)
        assert not ok
        result = sim.run()
        assert sim.engine_used == "scalar"
        assert reason_fragment in sim.fallback_reason
        assert sim.fallback_reason == reason
        return result

    def test_closed_loop(self):
        self._assert_falls_back(
            "closed-loop",
            arrivals=None,
            warmup_requests=20,
            measure_requests=60,
            clients_per_server=4,
        )

    def test_tracer(self):
        self._assert_falls_back(
            "tracer", tracer=Tracer(sample_rate=1.0, seed=17),
            measure_ms=400.0,
        )

    def test_remote_memory(self):
        # cohort_supported only inspects the attribute, so a sentinel is
        # enough to prove routing without paying for a trace simulation.
        sim = _simulator(measure_ms=400.0)
        sim._remote_memory = object()
        ok, reason = cohort_supported(sim)
        assert not ok and "remote memory" in reason

    def test_stochastic_faults(self):
        spec = FaultSpec(mtbf_hours=20.0 / 3600.0, mttr_hours=2.0 / 3600.0)
        self._assert_falls_back(
            "fault injection",
            faults=FaultProfile("test", {ComponentType.SERVER: spec}),
            fault_seed=7,
            retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
            measure_ms=400.0,
        )

    def test_redundancy(self):
        # The constructor requires remote_memory alongside redundancy,
        # and the remote-memory check fires first; probe the redundancy
        # branch directly so its reason string stays covered.
        sim = _simulator(measure_ms=400.0)
        sim._redundancy = RedundancyConfig(
            policy=RedundancyPolicy.replicated(2),
            blades=3,
            pages_per_server=64,
            rebuild=RebuildPolicy(chunk_pages=32, rate_pages_per_s=20_000.0),
        )
        ok, reason = cohort_supported(sim)
        assert not ok and "redundancy" in reason

    def test_maintenance_windows(self):
        self._assert_falls_back(
            "maintenance",
            maintenance=MaintenancePlan(
                windows=(MaintenanceWindow(0, 100.0, 50.0),)
            ),
            measure_ms=400.0,
        )

    def test_flash_disk_model(self):
        spec = disk_configuration("remote-laptop+flash").disk_spec("websearch")
        self._assert_falls_back(
            "disk model",
            disk_spec=spec,
            measure_ms=400.0,
        )


class TestClampPhaseDelay:
    def test_nonnegative_passthrough(self):
        assert clamp_phase_delay(5.0, 1000.0) == 5.0
        assert clamp_phase_delay(0.0, 1000.0) == 0.0

    def test_ulp_negative_clamps_to_zero(self):
        # One ulp below zero at a late clock: inside both epsilon terms.
        assert clamp_phase_delay(-1e-10, 0.0) == 0.0
        now = 1e7
        delay = -(PAST_EPSILON_MS + PAST_RELATIVE_EPSILON * now) * 0.99
        assert clamp_phase_delay(delay, now) == 0.0

    def test_relative_term_scales_with_clock(self):
        # Past the absolute epsilon alone, but inside the relative band
        # at a large clock -- the case a fixed epsilon would reject.
        delay = -2.0 * PAST_EPSILON_MS
        now = 1e4
        assert delay < -(PAST_EPSILON_MS + PAST_RELATIVE_EPSILON * 0.0)
        assert clamp_phase_delay(delay, now) == 0.0

    def test_genuinely_past_raises(self):
        with pytest.raises(ValueError, match="cannot schedule in the past"):
            clamp_phase_delay(-1.0, 0.0)
