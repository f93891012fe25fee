"""Cohort engine: digest equality with the scalar oracle, batched recording.

The serving-tier engine behind :meth:`ClusterSimulator.run` must be
*invisible* except for wall-clock time: every configuration produces a
:meth:`ClusterResult.stream_digest`, a span log
(:func:`~repro.obs.export.trace_digest`), a metrics snapshot and a
recovery report identical to the scalar event loop's
(:func:`tests.cluster.reference_balancer.run_scalar`, the oracle).
"""

import gc
from dataclasses import fields

import pytest

from repro.cluster.balancer import ClusterSimulator, Dispatch, RetryPolicy
from repro.cluster.engine import (
    PAST_EPSILON_MS,
    PAST_RELATIVE_EPSILON,
    clamp_phase_delay,
)
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.faults.failslow import (
    AdaptiveTimeoutPolicy,
    DetectionPolicy,
    FailSlowPlan,
    SlowResource,
)
from repro.faults.model import (
    STRESS_FAULT_PROFILE,
    ComponentType,
    FaultProfile,
    FaultSpec,
)
from repro.faults.recovery import (
    BladeFault,
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
from repro.platforms.catalog import platform
from repro.scenario import compile_scenario
from repro.scenario.compiler import _build_cluster_simulator
from repro.scenario.library import ext10_overload
from repro.scenario.registry import design
from repro.workloads.websearch import make_websearch
from tests.cluster.reference_balancer import run_scalar


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
    registry; return ``(sim, result, tracer, snapshot)`` per side."""
    sides = []
    for engine in ("scalar", "cohort"):
        tracer = (
            None if trace_rate is None
            else Tracer(sample_rate=trace_rate, seed=17)
        )
        metrics = MetricsRegistry()
        sim = _simulator(tracer=tracer, metrics=metrics, **kwargs)
        result = run_scalar(sim) if engine == "scalar" else sim.run()
        sides.append((sim, result, tracer, metrics.snapshot()))
    return sides


def _trace_digest(tracer):
    return None if tracer is None else trace_digest([("run", tracer.traces)])


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


#: The retry stack of the redundancy entries (EXT-13's, two retries).
_STORM_RETRY = RetryPolicy(
    timeout_ms=1000.0, max_retries=2, backoff_base_ms=20.0,
    hedge_after_ms=400.0,
)

#: Blade 0 dies 2 s in and comes back blank at 12 s, inside the ~48 s
#: closed-loop window, so failover reads, the rebuild stream and the
#: foreground transfers it queues with all land in the measured run.
_STORM = (BladeFault(0, 2_000.0, 12_000.0),)


def _redundancy(policy, blades, faults=(), backpressure_ms=None):
    """A blade group of ``blades`` behind the shared link, with a slow
    rebuild throttle: the stream runs long enough to share the link
    with many foreground transfers."""
    return RedundancyConfig(
        policy=policy, blades=blades, pages_per_server=128,
        rebuild=RebuildPolicy(
            chunk_pages=16, rate_pages_per_s=400.0, burst_pages=32.0,
            backpressure_ms=backpressure_ms,
        ),
        blade_faults=tuple(faults),
    )


def _storm(policy, blades, backpressure_ms=None, **kwargs):
    config = dict(
        remote_memory=_remote(), retry=_STORM_RETRY,
        redundancy=_redundancy(policy, blades, _STORM, backpressure_ms),
    )
    config.update(kwargs)
    return _closed(**config)


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

#: Configurations the cohort engine must reproduce bit-exactly.
EQUIVALENT_CONFIGS = {
    "bare": dict(retry=None),
    "naive-retry": dict(retry=RetryPolicy()),
    # EXT-10's naive arm at its scenario test's shrunk windows: ~60% of
    # four srvr1s' analytic capacity, then a 5x surge whose backlog
    # times attempts out -- live timeouts at the timeout deque's head.
    "naive-storm": dict(
        servers=4,
        retry=RetryPolicy(),
        overload=OverloadPolicy.unprotected(),
        arrivals=SurgeSchedule(
            base_rate_rps=200.0,
            surge_multiplier=5.0,
            surge_start_ms=1000.0,
            surge_end_ms=2000.0,
        ),
        measure_ms=4000.0,
    ),
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
    # The adaptive timeout drops below the static one mid-run, so new
    # deadlines precede the timeout deque's tail and go to the heap;
    # some of them fire while older attempts on the slow node still
    # wait out the static timeout.
    "failslow-adaptive": dict(
        retry=RetryPolicy(timeout_ms=1000.0, max_retries=1),
        failslow=FailSlowPlan.single_slow_node(
            server=1, factor=30.0, resource=SlowResource.CPU, at_ms=600.0
        ),
        failslow_detection=DetectionPolicy(
            eval_interval_ms=250.0, min_window_samples=4,
            adaptive_timeout=AdaptiveTimeoutPolicy(multiple=1.5),
        ),
        measure_ms=2000.0,
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
    # Redundancy: failover reads, rebuild chunks on the shared link, the
    # throttle, and the recovery report.
    "redundancy-healthy": _closed(
        remote_memory=_remote(),
        redundancy=_redundancy(RedundancyPolicy.replicated(2), 3),
    ),
    "storm-unprotected": _storm(None, 1),
    "storm-replica": _storm(RedundancyPolicy.replicated(2), 3),
    "storm-parity": _storm(RedundancyPolicy.parity(4), 5, backpressure_ms=60.0),
    "traced-replica-storm": _storm(
        RedundancyPolicy.replicated(2), 3, trace_rate=1.0
    ),
    # Stochastic blade faults through the orchestrator, overlapping
    # outages that lose pages, and the detector's impairment hook.
    "faults-protected-hot": _n2_faulted(
        measure_requests=600,
        redundancy=_redundancy(RedundancyPolicy.replicated(2), 3),
        failslow_detection=DetectionPolicy(
            eval_interval_ms=250.0, min_window_samples=4
        ),
    ),
    # Maintenance drains: rotation, the detector's drained set.
    "drain-failslow": _closed(
        retry=_STORM_RETRY,
        maintenance=MaintenancePlan.rolling(
            3, start_ms=5_000.0, duration_ms=8_000.0, gap_ms=2_000.0
        ),
        failslow=FailSlowPlan.single_slow_node(server=1, factor=4.0),
        failslow_detection=DetectionPolicy(
            eval_interval_ms=250.0, min_window_samples=4
        ),
    ),
    # The two configurations that used to select the scalar engine.
    "redundancy-open": dict(measure_ms=400.0, **_REDUNDANT),
    "drain-open": dict(
        maintenance=MaintenancePlan(
            windows=(MaintenanceWindow(0, 100.0, 50.0),)
        ),
        measure_ms=400.0,
    ),
}


def _span_attrs(tracer):
    return [span.attrs or {} for trace in tracer.traces for span in trace.spans]


#: What an entry's cohort run must show, so that its equality with the
#: oracle is not vacuous: ``(result, tracer) -> bool``.
EXERCISES = {
    "naive-storm": lambda r, _: r.fault_report.timeouts > 0,
    "failslow-adaptive": lambda r, _: (
        r.fault_report.timeouts > 0
        and r.failslow_report.last_adaptive_timeout_ms < 1000.0
    ),
    # No hedges: a lost attempt is only ended by its timeout.
    "faults-open-protected": lambda r, _: (
        r.fault_report.lost_in_flight > 0 and r.fault_report.timeouts > 0
    ),
    "storm-unprotected": lambda r, _: r.fault_report.degraded_requests > 0,
    "storm-replica": lambda r, _: (
        r.recovery_report.failover_requests > 0
        and r.recovery_report.pages_rebuilt > 0
        and r.recovery_report.throttle_denials > 0
    ),
    "storm-parity": lambda r, _: (
        r.recovery_report.backpressure_pauses > 0
        and r.recovery_report.pages_rebuilt > 0
    ),
    "traced-replica-storm": lambda _, t: (
        any(a.get("rebuild") for a in _span_attrs(t))
        and any("failover" in a for a in _span_attrs(t))
    ),
    "faults-protected-hot": lambda r, _: (
        r.recovery_report.lossy_requests > 0
        and r.recovery_report.audit.lost > 0
        and r.failslow_report.drain_marks > 0
    ),
    "drain-failslow": lambda r, _: r.recovery_report.drains == 3,
}


def _assert_same_recovery(want, got):
    """Field-by-field :class:`RecoveryReport` equality, the rebuild
    traces by span-log digest (``stream_digest()`` excludes the report)."""
    if want is None or got is None:
        assert want is got
        return
    for f in fields(want):
        if f.name == "rebuild_traces":
            assert trace_digest([("rebuild", got.rebuild_traces)]) == (
                trace_digest([("rebuild", want.rebuild_traces)])
            )
        else:
            assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestDigestEquality:
    @pytest.mark.parametrize("name", sorted(EQUIVALENT_CONFIGS))
    def test_cohort_matches_scalar(self, name):
        (_, scalar, s_tracer, s_metrics), (_, cohort, c_tracer, c_metrics) = (
            _run_pair(**EQUIVALENT_CONFIGS[name])
        )
        assert scalar.stream_digest() == cohort.stream_digest()
        assert _trace_digest(s_tracer) == _trace_digest(c_tracer)
        assert s_metrics == c_metrics
        _assert_same_recovery(scalar.recovery_report, cohort.recovery_report)
        if name in EXERCISES:
            assert EXERCISES[name](cohort, c_tracer)

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
        (_, scalar, _, _), (_, cohort, _, _) = _run_pair(**kwargs)
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
        rs, rc = run_scalar(scalar), cohort.run()
        assert rs.stream_digest() == rc.stream_digest()
        assert m_scalar.snapshot() == m_cohort.snapshot()


#: Objects one EXT-10 naive srvr1 run may leave for the cycle collector
#: once its result is kept and its simulator dropped.  It leaves 10 on
#: CPython 3.11 (the heap clock's ``schedule`` closure, which refers to
#: the clock); a run that leaves the attempts and events still pending
#: in its heap and station queues leaves 40,543.
LEFT_FOR_COLLECTOR = 100


class TestReleaseOnReturn:
    def test_naive_storm_run_leaves_little_for_the_collector(self):
        plan = next(
            p for p in compile_scenario(ext10_overload()).plans
            if p.run_id == "srvr1/naive"
        )
        sim, _, _ = _build_cluster_simulator(plan)
        gc.collect()
        gc.disable()
        try:
            result = sim.run()
            del sim
            left = gc.collect()
        finally:
            gc.enable()
        # The storm ends with work in flight: timeouts still fire.
        assert result.fault_report.timeouts > 0
        assert left <= LEFT_FOR_COLLECTOR


class TestZeroRateTracer:
    @pytest.mark.parametrize("name", ("closed-bare", "bench-surge"))
    def test_zero_rate_run_counts_requests_without_begin(
        self, name, monkeypatch
    ):
        """A zero-rate tracer records nothing, so the run never calls
        ``Tracer.begin``; it still counts every request the scalar
        oracle shows to the sampler.  ``bench-surge`` takes the fused
        open-loop path, ``closed-bare`` the closed loop's ``issue``."""
        config = EQUIVALENT_CONFIGS[name]
        untraced = _simulator(**config).run()
        oracle = Tracer(sample_rate=0.0)
        run_scalar(_simulator(tracer=oracle, **config))

        def begin(*args, **kwargs):
            raise AssertionError("a zero-rate run called Tracer.begin")

        monkeypatch.setattr(Tracer, "begin", begin)
        tracer = Tracer(sample_rate=0.0)
        result = _simulator(tracer=tracer, **config).run()
        assert result.stream_digest() == untraced.stream_digest()
        assert tracer.requests_seen == oracle.requests_seen > 0
        assert tracer.traces == []


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
