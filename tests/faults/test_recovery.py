"""Recovery orchestration: throttle, rebuild streams, maintenance."""

import pytest

from repro.faults.recovery import (
    BladeFault,
    MaintenancePlan,
    MaintenanceWindow,
    RebuildPolicy,
    RebuildThrottle,
    RecoveryOrchestrator,
    RecoveryReport,
    RedundancyConfig,
)
from repro.faults.injector import FaultEvent, schedule_maintenance
from repro.memsim.redundancy import RedundancyPolicy
from tests.simulator.engine import Simulation
from tests.simulator.resources import Resource


class TestRebuildPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RebuildPolicy(chunk_pages=0)
        with pytest.raises(ValueError):
            RebuildPolicy(rate_pages_per_s=0)
        with pytest.raises(ValueError):
            RebuildPolicy(chunk_pages=64, burst_pages=32)
        with pytest.raises(ValueError):
            RebuildPolicy(backpressure_ms=0)
        with pytest.raises(ValueError):
            RebuildPolicy(ewma_alpha=0.0)


class TestRebuildThrottle:
    def test_token_bucket_caps_sustained_rate(self):
        throttle = RebuildThrottle(
            RebuildPolicy(chunk_pages=64, rate_pages_per_s=1000.0,
                          burst_pages=64)
        )
        assert throttle.try_acquire(0.0, 64)
        assert not throttle.try_acquire(0.0, 64)
        # 64 pages at 1000/s accrue in 64 ms.
        wait = throttle.refill_wait_ms(64)
        assert wait == pytest.approx(64.0, abs=1.0)
        assert throttle.try_acquire(wait, 64)

    def test_backpressure_follows_foreground_ewma(self):
        throttle = RebuildThrottle(RebuildPolicy(backpressure_ms=100.0))
        assert not throttle.backpressured  # unprimed: no signal yet
        throttle.observe_foreground(250.0)
        assert throttle.backpressured
        for _ in range(40):
            throttle.observe_foreground(10.0)
        assert not throttle.backpressured

    def test_no_backpressure_when_disabled(self):
        throttle = RebuildThrottle(RebuildPolicy(backpressure_ms=None))
        throttle.observe_foreground(10_000.0)
        assert not throttle.backpressured

    def test_pending_latencies_fold_to_the_same_ewma(self):
        latencies = [250.0, 30.0, 7.5, 120.0, 61.25, 0.1] * 5
        one_by_one = RebuildThrottle(RebuildPolicy(backpressure_ms=60.0))
        batched = RebuildThrottle(RebuildPolicy(backpressure_ms=60.0))
        for latency in latencies:
            one_by_one.observe_foreground(latency)
        batched.pending.extend(latencies)
        assert batched.backpressured == one_by_one.backpressured
        assert batched._ewma == one_by_one._ewma
        assert batched.pending == []


class TestScriptedFaults:
    def test_blade_fault_validation(self):
        with pytest.raises(ValueError):
            BladeFault(-1, 10.0)
        with pytest.raises(ValueError):
            BladeFault(0, 100.0, 50.0)

    def test_config_rejects_out_of_range_faults(self):
        with pytest.raises(ValueError):
            RedundancyConfig(
                policy=RedundancyPolicy.replicated(2), blades=3,
                blade_faults=(BladeFault(3, 10.0),),
            )

    def test_config_rejects_overlapping_faults_on_one_blade(self):
        with pytest.raises(ValueError, match=r"\[1000, 5000\).*\[2000, 6000\)"):
            RedundancyConfig(blade_faults=(
                BladeFault(0, 1000.0, 5000.0), BladeFault(0, 2000.0, 6000.0),
            ))
        # An unrepaired fault lasts to the end of the run.
        with pytest.raises(ValueError, match="end of run"):
            RedundancyConfig(blade_faults=(
                BladeFault(0, 5000.0, 6000.0), BladeFault(0, 1000.0),
            ))

    def test_config_accepts_touching_and_disjoint_faults(self):
        config = RedundancyConfig(
            policy=RedundancyPolicy.replicated(2), blades=3,
            blade_faults=(
                BladeFault(0, 1000.0, 5000.0), BladeFault(0, 5000.0),
                BladeFault(1, 2000.0, 3000.0),
            ),
        )
        assert len(config.blade_faults) == 3

    def test_config_rejects_too_few_blades(self):
        with pytest.raises(ValueError):
            RedundancyConfig(policy=RedundancyPolicy.parity(4), blades=4)

    def test_unprotected_config_builds_no_group(self):
        config = RedundancyConfig(policy=None, blades=1)
        assert config.nblades == 1
        assert config.build_group(["server-0"]) is None

    def test_protected_config_builds_populated_group(self):
        config = RedundancyConfig(
            policy=RedundancyPolicy.replicated(2), blades=3,
            pages_per_server=16,
        )
        group = config.build_group(["server-0", "server-1"])
        assert group is not None
        audit = group.audit()
        assert audit.written == 32
        assert audit.intact == 32


class TestMaintenancePlan:
    def test_rolling_windows_are_sequential(self):
        plan = MaintenancePlan.rolling(
            3, start_ms=100.0, duration_ms=50.0, gap_ms=10.0
        )
        assert [w.server for w in plan.windows] == [0, 1, 2]
        assert [w.start_ms for w in plan.windows] == [100.0, 160.0, 220.0]
        assert plan.windows[0].end_ms == 150.0

    def test_overlapping_windows_on_one_server_rejected(self):
        with pytest.raises(ValueError, match=r"\[100, 400\).*\[150, 200\)"):
            MaintenancePlan((
                MaintenanceWindow(0, 100.0, 300.0),
                MaintenanceWindow(0, 150.0, 50.0),
            ))

    def test_touching_windows_and_other_servers_accepted(self):
        plan = MaintenancePlan((
            MaintenanceWindow(0, 0.0, 100.0),
            MaintenanceWindow(0, 100.0, 50.0),
            MaintenanceWindow(1, 50.0, 500.0),
        ))
        assert len(plan.windows) == 3

    def test_schedule_maintenance_consumes_zero_rng(self):
        sim = Simulation()
        drained, restored = [], []
        events = []
        plan = MaintenancePlan.rolling(2, start_ms=10.0, duration_ms=5.0)
        schedule_maintenance(
            sim, plan.windows, drained.append, restored.append,
            events=events,
        )
        sim.run()
        assert drained == [0, 1]
        assert restored == [0, 1]
        assert [(e.kind, e.component) for e in events] == [
            ("drain", "maintenance/server0"),
            ("restore", "maintenance/server0"),
            ("drain", "maintenance/server1"),
            ("restore", "maintenance/server1"),
        ]
        assert all(isinstance(e, FaultEvent) for e in events)


def _orchestrator(sim, link, rebuild=None, trace=False):
    config = RedundancyConfig(
        policy=RedundancyPolicy.replicated(2), blades=3,
        pages_per_server=32,
        rebuild=rebuild or RebuildPolicy(
            chunk_pages=16, rate_pages_per_s=10_000.0, burst_pages=16
        ),
    )
    group = config.build_group(["server-0", "server-1"])
    return RecoveryOrchestrator(
        sim, link, group, config.rebuild, page_latency_us=4.0,
        trace=trace, report=RecoveryReport(),
    )


class TestRecoveryOrchestrator:
    def test_failover_then_rebuild_restores_redundancy(self):
        sim = Simulation()
        link = Resource(sim, "blade", 1)
        recovery = _orchestrator(sim, link, trace=True)
        assert not recovery.active
        sim.schedule_at(100.0, lambda: recovery.blade_failed(0))
        sim.schedule_at(400.0, lambda: recovery.blade_repaired(0))
        sim.run()
        recovery.finalize(sim.now)
        report = recovery.report
        assert recovery.group.pages_needing_rebuild == 0
        assert recovery.group.degraded_pages() == 0
        assert not recovery.active
        assert report.blade_failures == 1
        assert report.blade_repairs == 1
        assert report.pages_rebuilt > 0
        assert report.rebuild_chunks >= 1
        # Exposure runs from failure until the rebuild finishes.
        assert report.exposure_ms > 300.0
        assert report.blade_downtime_ms[0] == pytest.approx(300.0)
        assert report.audit is not None and report.audit.conserved
        assert not report.data_loss
        # The stream was traced: a root span plus one span per chunk.
        assert len(report.rebuild_traces) == 1
        assert len(report.rebuild_traces[0].spans) == report.rebuild_chunks + 1

    def test_profile_degrades_during_outage_and_recovers(self):
        sim = Simulation()
        link = Resource(sim, "blade", 1)
        recovery = _orchestrator(sim, link)
        assert recovery.profile("server-0").healthy
        recovery.blade_failed(0)
        prof = recovery.profile("server-0")
        assert not prof.healthy
        assert prof.failover_fraction > 0.0
        assert prof.lost_fraction == 0.0  # single fault is tolerated
        recovery.blade_repaired(0)
        sim.run()
        assert recovery.profile("server-0").healthy

    def test_rate_throttle_slows_the_stream(self):
        fast_sim = Simulation()
        fast = _orchestrator(
            fast_sim, Resource(fast_sim, "blade", 1),
            rebuild=RebuildPolicy(
                chunk_pages=16, rate_pages_per_s=1_000_000.0,
                burst_pages=1024,
            ),
        )
        slow_sim = Simulation()
        slow = _orchestrator(
            slow_sim, Resource(slow_sim, "blade", 1),
            rebuild=RebuildPolicy(
                chunk_pages=16, rate_pages_per_s=2_000.0, burst_pages=16
            ),
        )
        for sim, recovery in ((fast_sim, fast), (slow_sim, slow)):
            sim.schedule_at(10.0, lambda r=recovery: r.blade_failed(0))
            sim.schedule_at(20.0, lambda r=recovery: r.blade_repaired(0))
            sim.run()
            recovery.finalize(sim.now)
        assert slow.report.throttle_denials > 0
        assert slow.report.rebuild_ms > fast.report.rebuild_ms
        assert slow.report.pages_rebuilt == fast.report.pages_rebuilt

    def test_backpressure_pauses_while_foreground_is_slow(self):
        sim = Simulation()
        link = Resource(sim, "blade", 1)
        recovery = _orchestrator(
            sim, link,
            rebuild=RebuildPolicy(
                chunk_pages=16, rate_pages_per_s=1_000_000.0,
                burst_pages=1024, backpressure_ms=50.0, pause_ms=5.0,
            ),
        )
        recovery.observe_foreground(500.0)  # tail already inflated
        sim.schedule_at(10.0, lambda: recovery.blade_failed(0))
        sim.schedule_at(20.0, lambda: recovery.blade_repaired(0))
        # Foreground recovers shortly after; rebuild resumes then.
        sim.schedule_at(
            30.0, lambda: [recovery.observe_foreground(1.0)
                           for _ in range(50)]
        )
        sim.run()
        recovery.finalize(sim.now)
        assert recovery.report.backpressure_pauses > 0
        assert recovery.group.pages_needing_rebuild == 0

    def test_unfinished_exposure_closed_by_finalize(self):
        sim = Simulation()
        link = Resource(sim, "blade", 1)
        recovery = _orchestrator(sim, link)
        sim.schedule_at(100.0, lambda: recovery.blade_failed(0))
        sim.schedule_at(500.0, lambda: None)  # advance the clock past it
        sim.run()
        recovery.finalize(sim.now)
        report = recovery.report
        assert recovery.active  # blade still down: stays active
        assert report.exposure_ms > 0.0
        assert report.blade_downtime_ms[0] > 0.0

    def test_active_callback_follows_the_flag(self):
        sim = Simulation()
        recovery = _orchestrator(sim, Resource(sim, "blade", 1))
        flags = []
        recovery.on_active = flags.append
        sim.schedule_at(100.0, lambda: recovery.blade_failed(0))
        sim.schedule_at(400.0, lambda: recovery.blade_repaired(0))
        sim.run()
        assert flags == [True, False]
        assert not recovery.active

    def test_impairment_callback_fires_on_data_loss(self):
        sim = Simulation()
        link = Resource(sim, "blade", 1)
        recovery = _orchestrator(sim, link)
        marks = []
        recovery.on_impairment = lambda server, flag: marks.append(
            (server, flag)
        )
        recovery.blade_failed(0)
        assert marks == []  # tolerated fault: nobody is impaired
        recovery.blade_failed(1)
        assert ("server-0", True) in marks
