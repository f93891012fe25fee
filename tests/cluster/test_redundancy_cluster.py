"""Cluster-level redundancy: digest identity, blade storms, drains."""

import pytest

from repro.cluster.balancer import ClusterSimulator, RetryPolicy
from repro.faults.recovery import (
    BladeFault,
    MaintenancePlan,
    MaintenanceWindow,
    RebuildPolicy,
    RedundancyConfig,
)
from repro.memsim.redundancy import RedundancyPolicy
from repro.memsim.remote_memory import make_remote_memory_model
from repro.platforms.catalog import platform
from repro.workloads.websearch import make_websearch

RETRY = RetryPolicy(
    timeout_ms=1000.0, max_retries=2, backoff_base_ms=20.0,
    hedge_after_ms=400.0,
)
STORM = (BladeFault(0, 500.0, 6_000.0),)
REBUILD = RebuildPolicy(chunk_pages=32, rate_pages_per_s=20_000.0)


def _redundancy(policy, blades, faults=()):
    return RedundancyConfig(
        policy=policy, blades=blades, pages_per_server=64,
        rebuild=REBUILD, blade_faults=tuple(faults),
    )


def _run(redundancy=None, maintenance=None, retry=None, measure=700):
    simulator = ClusterSimulator(
        platform("srvr1"),
        make_websearch(),
        servers=3,
        clients_per_server=4,
        seed=5,
        warmup_requests=80,
        measure_requests=measure,
        remote_memory=make_remote_memory_model(
            "websearch", local_fraction=0.25, trace_length=50_000
        ),
        retry=retry,
        redundancy=redundancy,
        maintenance=maintenance,
    )
    return simulator.run()


class TestHealthyDigestIdentity:
    """Redundancy-off and healthy redundancy-on are bit-identical."""

    def test_without_retry_policy(self):
        off = _run()
        on = _run(_redundancy(RedundancyPolicy.replicated(2), 3))
        assert off.stream_digest() == on.stream_digest()
        # A healthy protected run must not attach an all-zero fault
        # report the unprotected run lacks (that diverges the digest).
        assert off.fault_report is None
        assert on.fault_report is None

    def test_with_retry_policy(self):
        off = _run(retry=RETRY)
        on = _run(
            _redundancy(RedundancyPolicy.parity(4), 5), retry=RETRY
        )
        assert off.stream_digest() == on.stream_digest()

    def test_healthy_recovery_report_is_quiet(self):
        on = _run(_redundancy(RedundancyPolicy.replicated(2), 3))
        report = on.recovery_report
        assert report is not None
        assert report.blade_failures == 0
        assert report.pages_rebuilt == 0
        assert report.failover_requests == 0
        assert report.audit is not None and report.audit.conserved


class TestBladeStorm:
    def test_replica_rides_through_with_zero_loss(self):
        healthy = _run(
            _redundancy(RedundancyPolicy.replicated(2), 3), retry=RETRY
        )
        storm = _run(
            _redundancy(RedundancyPolicy.replicated(2), 3, STORM),
            retry=RETRY,
        )
        report = storm.recovery_report
        assert report.blade_failures == 1
        assert report.blade_repairs == 1
        assert report.failover_requests > 0
        assert report.lossy_requests == 0
        assert report.pages_rebuilt > 0
        assert report.audit.conserved
        assert report.audit.lost == 0 and report.audit.duplicated == 0
        assert not report.data_loss
        retention = storm.throughput_rps / healthy.throughput_rps
        assert retention >= 0.90

    def test_parity_reconstructs_under_storm(self):
        storm = _run(
            _redundancy(RedundancyPolicy.parity(4), 5, STORM),
            retry=RETRY,
        )
        report = storm.recovery_report
        # The hot path models reconstruction as latency amplification
        # on failed-over requests; the group's page counters only move
        # for the rebuild stream itself.
        assert report.failover_requests > 0
        assert report.pages_rebuilt > 0
        assert not report.data_loss

    def test_unprotected_storm_degrades_requests(self):
        storm = _run(_redundancy(None, 1, STORM), retry=RETRY)
        report = storm.recovery_report
        assert report.blade_failures == 1
        assert storm.fault_report.degraded_requests > 0
        assert report.blade_downtime_ms[0] > 0.0

    def test_back_to_back_faults_listed_out_of_order(self):
        # Blade 0 fails again the instant it is repaired; listing the
        # later fault first must not fail the still-down blade twice.
        storm = _run(
            _redundancy(RedundancyPolicy.replicated(2), 3, (
                BladeFault(0, 3_000.0, 5_000.0),
                BladeFault(0, 500.0, 3_000.0),
            )),
            retry=RETRY,
        )
        report = storm.recovery_report
        assert report.blade_failures == report.blade_repairs == 2
        assert report.blade_downtime_ms == {0: 4_500.0}

    def test_parity_storm_changes_the_digest(self):
        # Replica failover reads cost the same as primary reads (1.0x
        # amplification), so a replica storm can legitimately leave the
        # stream unchanged.  Parity reconstruction amplifies reads kx,
        # which must show up in the response stream.
        healthy = _run(
            _redundancy(RedundancyPolicy.parity(4), 5), retry=RETRY
        )
        storm = _run(
            _redundancy(RedundancyPolicy.parity(4), 5, STORM),
            retry=RETRY,
        )
        assert healthy.stream_digest() != storm.stream_digest()

    def test_storm_is_deterministic(self):
        config = _redundancy(RedundancyPolicy.replicated(2), 3, STORM)
        first = _run(config, retry=RETRY)
        second = _run(config, retry=RETRY)
        assert first.stream_digest() == second.stream_digest()
        assert (
            first.recovery_report.pages_rebuilt
            == second.recovery_report.pages_rebuilt
        )
        assert (
            first.recovery_report.rebuild_ms
            == second.recovery_report.rebuild_ms
        )


class TestMaintenanceDrains:
    def test_rolling_windows_are_counted(self):
        plan = MaintenancePlan.rolling(
            3, start_ms=400.0, duration_ms=400.0, gap_ms=100.0
        )
        result = _run(
            _redundancy(RedundancyPolicy.replicated(2), 3),
            maintenance=plan, retry=RETRY, measure=900,
        )
        report = result.recovery_report
        assert report.drains == 3
        assert report.drain_ms > 0.0
        # Drains reroute work but never lose pages; the closed loop
        # still completes every measured request.
        assert not report.data_loss
        assert sum(result.server_completions) == 900 + 80  # + warmup

    def test_back_to_back_windows_listed_out_of_order(self):
        plan = MaintenancePlan((
            MaintenanceWindow(0, 600.0, 300.0),
            MaintenanceWindow(0, 300.0, 300.0),
        ))
        report = _run(maintenance=plan, retry=RETRY).recovery_report
        assert report.drains == 2
        assert report.drain_ms == 600.0

    def test_out_of_range_window_rejected(self):
        plan = MaintenancePlan(
            windows=(MaintenanceWindow(7, 100.0, 50.0),)
        )
        with pytest.raises(ValueError, match="out of range"):
            _run(
                _redundancy(RedundancyPolicy.replicated(2), 3),
                maintenance=plan,
            )
