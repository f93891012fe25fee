"""Stochastic fault injection and graceful degradation in the cluster.

Covers the robustness stack end to end: seeded fault schedules,
health-checked dispatch with timeout/retry/hedging, correlated
memory-blade and enclosure failures, degraded modes (local-memory-only
paging, flash-cache bypass), and the determinism guarantees that make
fault runs reproducible.
"""

from repro.cluster.balancer import ClusterResult, ClusterSimulator, RetryPolicy
from repro.faults.model import ComponentType, FaultProfile, FaultSpec
from repro.faults.recovery import MaintenancePlan, MaintenanceWindow
from repro.flashcache.analysis import disk_configuration
from repro.memsim.remote_memory import make_remote_memory_model
from repro.platforms.catalog import platform
from repro.workloads.suite import make_workload


def _seconds(mtbf_s, mttr_s):
    return FaultSpec(mtbf_hours=mtbf_s / 3600.0, mttr_hours=mttr_s / 3600.0)


#: Seconds-scale MTBFs so faults fire inside a short simulated window.
SERVER_FAULTS = FaultProfile(
    "test-servers", {ComponentType.SERVER: _seconds(15.0, 2.0)}
)
BLADE_FAULTS = FaultProfile(
    "test-blade", {ComponentType.MEMORY_BLADE: _seconds(10.0, 3.0)}
)
FLASH_FAULTS = FaultProfile(
    "test-flash", {ComponentType.FLASH_CACHE: _seconds(10.0, 3.0)}
)


def _cluster(**kwargs):
    defaults = dict(
        platform=platform("desk"),
        workload=make_workload("webmail"),
        servers=3,
        clients_per_server=6,
        seed=1,
        warmup_requests=100,
        measure_requests=800,
    )
    defaults.update(kwargs)
    return ClusterSimulator(**defaults)


class TestImbalanceGuard:
    def test_empty_completions_report_neutral_imbalance(self):
        result = ClusterResult(
            servers=0,
            throughput_rps=0.0,
            mean_response_ms=0.0,
            qos_percentile_ms=0.0,
            qos_met=True,
            per_server_rps=0.0,
            server_completions=[],
        )
        assert result.imbalance == 1.0

    def test_all_zero_completions_report_neutral_imbalance(self):
        result = ClusterResult(
            servers=2,
            throughput_rps=0.0,
            mean_response_ms=0.0,
            qos_percentile_ms=0.0,
            qos_met=True,
            per_server_rps=0.0,
            server_completions=[0, 0],
        )
        assert result.imbalance == 1.0


class TestInjectedFaults:
    def test_faults_fire_and_cluster_survives(self):
        result = _cluster(faults=SERVER_FAULTS).run()
        report = result.fault_report
        assert report is not None
        assert sum(report.injected_failures.values()) > 0
        assert "server" in report.injected_failures
        assert result.throughput_rps > 0
        assert 0.0 < result.availability <= 1.0

    def test_crash_voids_in_flight_and_clients_retry(self):
        result = _cluster(
            faults=SERVER_FAULTS,
            retry=RetryPolicy(timeout_ms=300.0, max_retries=3,
                              backoff_base_ms=10.0),
        ).run()
        report = result.fault_report
        assert report.lost_in_flight > 0
        assert report.timeouts > 0
        assert report.retries > 0

    def test_hedging_duplicates_slow_requests(self):
        result = _cluster(
            faults=SERVER_FAULTS,
            retry=RetryPolicy(timeout_ms=500.0, hedge_after_ms=20.0),
        ).run()
        report = result.fault_report
        assert report.hedges > 0
        # A hedge that loses the race shows up as a wasted completion.
        assert report.wasted_completions > 0

    def test_full_outage_waits_instead_of_crashing(self):
        # Both servers drained at once: nobody can serve for 3 s.
        result = _cluster(
            servers=2,
            maintenance=MaintenancePlan((
                MaintenanceWindow(0, 1_000.0, 3_000.0),
                MaintenanceWindow(1, 1_000.0, 3_000.0),
            )),
        ).run()
        assert result.fault_report.all_down_waits > 0
        assert result.throughput_rps > 0


class TestCorrelatedBladeFailure:
    def _run(self, faults=None):
        remote = make_remote_memory_model(
            "websearch", local_fraction=0.25, trace_length=50_000
        )
        return _cluster(
            platform=platform("emb1"),
            workload=make_workload("websearch"),
            remote_memory=remote,
            faults=faults,
            fault_seed=7,
        ).run()

    def test_blade_down_degrades_every_server_at_once(self):
        healthy = self._run()
        faulted = self._run(faults=BLADE_FAULTS)
        report = faulted.fault_report
        assert report.injected_failures.get("memory-blade", 0) > 0
        assert report.blade_downtime_ms > 0
        # Local-memory-only mode served requests on every server.
        assert report.degraded_requests > 0
        # The correlated outage is visible in the tail, not a collapse.
        assert faulted.qos_percentile_ms > healthy.qos_percentile_ms
        assert faulted.throughput_rps > 0.5 * healthy.throughput_rps


class TestFlashCacheBypass:
    def test_cache_down_falls_back_to_raw_disk(self):
        spec = disk_configuration("remote-laptop+flash").disk_spec("websearch")
        result = _cluster(
            platform=platform("emb1"),
            workload=make_workload("websearch"),
            disk_spec=spec,
            faults=FLASH_FAULTS,
            fault_seed=3,
        ).run()
        report = result.fault_report
        assert report.injected_failures.get("flash-cache", 0) > 0
        assert report.cache_bypassed_requests > 0
        assert result.throughput_rps > 0


class TestDeterminism:
    """Satellite: same-seed runs are byte-identical, different seeds differ."""

    def test_fault_injected_runs_are_reproducible(self):
        results = [
            _cluster(faults=SERVER_FAULTS, fault_seed=11).run() for _ in range(2)
        ]
        assert repr(results[0]) == repr(results[1])
        assert results[0].fault_report.injected_failures == (
            results[1].fault_report.injected_failures
        )

    def test_different_fault_seed_differs(self):
        a = _cluster(faults=SERVER_FAULTS, fault_seed=11).run()
        b = _cluster(faults=SERVER_FAULTS, fault_seed=12).run()
        assert repr(a) != repr(b)

    def test_different_workload_seed_differs(self):
        a = _cluster(faults=SERVER_FAULTS, seed=1, fault_seed=11).run()
        b = _cluster(faults=SERVER_FAULTS, seed=2, fault_seed=11).run()
        assert repr(a) != repr(b)
