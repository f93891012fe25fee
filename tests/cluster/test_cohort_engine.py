"""Cohort engine: digest equality, fallback routing, batched recording.

The vectorized serving-tier engine that :meth:`ClusterSimulator.run`
selects for eligible configurations must be *invisible* except for
wall-clock time: every supported configuration produces a
:meth:`ClusterResult.stream_digest`, a span log
(:func:`~repro.obs.export.trace_digest`) and a metrics snapshot
identical to the scalar event loop's (``_run_scalar()``, the
reference), and every unsupported configuration routes to the scalar
path with an explanatory ``fallback_reason`` rather than diverging.
"""

import pytest

from repro.cluster.balancer import ClusterSimulator, Dispatch, RetryPolicy
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.faults.failslow import DetectionPolicy, FailSlowPlan, SlowResource
from repro.faults.model import (
    STRESS_FAULT_PROFILE,
    ComponentType,
    FaultProfile,
    FaultSpec,
)
from repro.faults.recovery import (
    MaintenancePlan,
    MaintenanceWindow,
    RebuildPolicy,
    RedundancyConfig,
)
from repro.flashcache.analysis import disk_configuration
from repro.memsim.redundancy import RedundancyPolicy
from repro.memsim.remote_memory import make_remote_memory_model
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import trace_digest
from repro.perf.cluster_kernels import clamp_phase_delay, cohort_supported
from repro.platforms.catalog import platform
from repro.scenario.registry import design
from repro.simulator.engine import PAST_EPSILON_MS, PAST_RELATIVE_EPSILON
from repro.workloads.websearch import make_websearch


def _surge(measure_ms=1500.0, base_rate_rps=120.0):
    return SurgeSchedule(
        base_rate_rps=base_rate_rps,
        surge_multiplier=4.0,
        surge_start_ms=500.0 + 0.25 * measure_ms,
        surge_end_ms=500.0 + 0.5 * measure_ms,
    )


def _simulator(platform_name="srvr1", **kwargs):
    defaults = dict(
        servers=3,
        clients_per_server=1,
        seed=11,
        arrivals=_surge(),
        warmup_ms=500.0,
        measure_ms=1500.0,
    )
    defaults.update(kwargs)
    plat = (
        design(platform_name).platform if platform_name == "N2"
        else platform(platform_name)
    )
    return ClusterSimulator(plat, make_websearch(), **defaults)


def _run_pair(trace_rate=None, **kwargs):
    """Run the scalar reference and ``run()`` on the same config, each
    with its own tracer (when ``trace_rate`` is set) and metrics
    registry; return ``(sim, result, trace digest, snapshot)`` per side."""
    sides = []
    for engine in ("scalar", "cohort"):
        tracer = (
            None if trace_rate is None
            else Tracer(sample_rate=trace_rate, seed=17)
        )
        metrics = MetricsRegistry()
        sim = _simulator(tracer=tracer, metrics=metrics, **kwargs)
        result = sim._run_scalar() if engine == "scalar" else sim.run()
        traces = (
            None if tracer is None
            else trace_digest([("run", tracer.traces)])
        )
        sides.append((sim, result, traces, metrics.snapshot()))
    return sides


def _closed(**kwargs):
    """A closed-loop run: 3 servers x 4 clients, 50 + 500 completions."""
    config = dict(
        arrivals=None, clients_per_server=4,
        warmup_requests=50, measure_requests=500,
    )
    config.update(kwargs)
    return config


#: The EXT-8 faulted overlay's retry stack.
_EXT8_RETRY = RetryPolicy(
    timeout_ms=500.0, max_retries=3, backoff_base_ms=20.0, hedge_after_ms=250.0
)

#: Every component class fails within a second-scale window, so one
#: short N2 run sees the blade domain, flash fail/recover, a fan
#: throttle, a PSU outage of the whole enclosure and the all-down
#: health waits it causes.
_HOT = FaultProfile("hot", {
    ComponentType.SERVER: FaultSpec(mtbf_hours=6.0 / 3600, mttr_hours=0.4 / 3600),
    ComponentType.DISK: FaultSpec(mtbf_hours=9.0 / 3600, mttr_hours=0.3 / 3600),
    ComponentType.NIC: FaultSpec(mtbf_hours=9.0 / 3600, mttr_hours=0.3 / 3600),
    ComponentType.MEMORY_BLADE: FaultSpec(
        mtbf_hours=1.5 / 3600, mttr_hours=0.5 / 3600
    ),
    ComponentType.FLASH_CACHE: FaultSpec(
        mtbf_hours=2.0 / 3600, mttr_hours=0.5 / 3600
    ),
    ComponentType.ENCLOSURE_FAN: FaultSpec(
        mtbf_hours=1.5 / 3600, mttr_hours=0.5 / 3600
    ),
    ComponentType.ENCLOSURE_PSU: FaultSpec(
        mtbf_hours=2.0 / 3600, mttr_hours=0.3 / 3600
    ),
})


def _remote():
    return make_remote_memory_model("websearch", trace_length=100_000)


def _disk(name):
    return disk_configuration(name).disk_spec("websearch")


def _n2_faulted(**kwargs):
    """EXT-8's N2 shape, by default under :data:`_HOT` faults: one
    6-server enclosure sharing a memory blade, flash-cached SAN disks."""
    config = dict(
        platform_name="N2", servers=6, clients_per_server=6,
        measure_requests=1500, remote_memory=_remote(),
        disk_spec=_disk("remote-laptop+flash"), faults=_HOT, fault_seed=5,
        retry=_EXT8_RETRY,
    )
    config.update(kwargs)
    return _closed(**config)


#: Configurations the cohort engine must reproduce bit-exactly.
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
    # The closed loop: think-time re-issue, completion-count windows.
    "closed-bare": _closed(),
    "closed-hedge": _closed(
        retry=RetryPolicy(timeout_ms=300.0, max_retries=2, hedge_after_ms=60.0)
    ),
    "closed-protected": _closed(
        clients_per_server=12,
        retry=RetryPolicy(timeout_ms=250.0, max_retries=2, hedge_after_ms=90.0),
        overload=OverloadPolicy(),
    ),
    # The shared blade link and the per-server disk models.
    "remote-memory": _closed(remote_memory=_remote()),
    "disk-local": _closed(disk_spec=_disk("baseline")),
    "disk-san": _closed(disk_spec=_disk("remote-laptop")),
    "disk-san-flash": _closed(disk_spec=_disk("remote-laptop+flash")),
    # Stochastic faults: epochs, lost in-flight work, degraded modes.
    "faults-srvr1": _closed(
        servers=6, clients_per_server=6, measure_requests=1500,
        enclosure_size=1, faults=STRESS_FAULT_PROFILE, fault_seed=7,
        retry=_EXT8_RETRY,
    ),
    "faults-N2": _n2_faulted(),
    "faults-N2-stress": _n2_faulted(faults=STRESS_FAULT_PROFILE, fault_seed=7),
    "faults-open-protected": dict(
        faults=_HOT, fault_seed=3,
        retry=RetryPolicy(timeout_ms=300.0, max_retries=2),
        overload=OverloadPolicy(),
    ),
    # The tracer: the same spans at the same points.
    "traced-healthy": _closed(trace_rate=1.0),
    "traced-faulted": _n2_faulted(trace_rate=1.0),
    "traced-sampled": _n2_faulted(trace_rate=0.3),
    "traced-open-protected": dict(
        trace_rate=1.0,
        retry=RetryPolicy(timeout_ms=300.0, max_retries=2, hedge_after_ms=100.0),
        overload=OverloadPolicy(),
    ),
}


class TestDigestEquality:
    @pytest.mark.parametrize("name", sorted(EQUIVALENT_CONFIGS))
    def test_cohort_matches_scalar(self, name):
        (_, scalar, s_traces, s_metrics), (csim, cohort, c_traces, c_metrics) = (
            _run_pair(**EQUIVALENT_CONFIGS[name])
        )
        assert csim.engine_used == "cohort", csim.fallback_reason
        assert scalar.stream_digest() == cohort.stream_digest()
        assert s_traces == c_traces
        assert s_metrics == c_metrics

    def test_faulted_n2_exercises_every_degraded_mode(self):
        """The faults-N2 entry is not a vacuous equality: the blade
        domain, flash, fan and PSU all fail inside its window, and
        in-flight work is lost and waits for a healthy server."""
        cohort = _simulator(**EQUIVALENT_CONFIGS["faults-N2"]).run()
        report = cohort.fault_report
        for ctype in ComponentType:
            assert report.injected_failures.get(ctype.value, 0) > 0, ctype
        assert report.degraded_requests > 0
        assert report.cache_bypassed_requests > 0
        assert report.lost_in_flight > 0
        assert report.all_down_waits > 0
        assert report.blade_downtime_ms > 0.0
        assert cohort.availability < 1.0

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
        (_, scalar, _, _), (csim, cohort, _, _) = _run_pair(**kwargs)
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
            retry=None, measure_ms=400.0, **_REDUNDANT,
        )
        assert sim.engine_used is None and sim.fallback_reason is None
        sim.run()
        assert sim.engine_used == "scalar"
        assert sim.fallback_reason == "redundancy/rebuild traffic"


#: A replicated blade group behind the shared remote-memory link.
_REDUNDANT = dict(
    remote_memory=make_remote_memory_model("websearch", trace_length=50_000),
    redundancy=RedundancyConfig(
        policy=RedundancyPolicy.replicated(2),
        blades=3,
        pages_per_server=64,
        rebuild=RebuildPolicy(chunk_pages=32, rate_pages_per_s=20_000.0),
    ),
)


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

    def test_redundancy(self):
        self._assert_falls_back("redundancy", measure_ms=400.0, **_REDUNDANT)

    def test_maintenance_windows(self):
        self._assert_falls_back(
            "maintenance",
            maintenance=MaintenancePlan(
                windows=(MaintenanceWindow(0, 100.0, 50.0),)
            ),
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
