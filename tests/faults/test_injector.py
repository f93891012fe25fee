"""Tests of the stochastic fault injector and failure domains."""


from repro.faults.injector import FailureDomain, FaultInjector
from repro.faults.model import ComponentType, FaultProfile, FaultSpec
from repro.simulator.telemetry import AvailabilityTracker
from tests.simulator.engine import Simulation

#: Seconds-scale profile so a short run sees many fail/repair cycles.
FAST = FaultProfile(
    "fast",
    {
        ComponentType.SERVER: FaultSpec(10.0 / 3600.0, 1.0 / 3600.0),
        ComponentType.MEMORY_BLADE: FaultSpec(5.0 / 3600.0, 1.0 / 3600.0),
    },
)


def total_failures(injector: FaultInjector) -> int:
    return sum(injector.failure_counts.values())


def _run(sim, until_s=600.0):
    sim.run(until_ms=until_s * 1000.0)


class TestFaultInjector:
    def test_component_cycles_between_fail_and_repair(self):
        sim = Simulation()
        injector = FaultInjector(sim, FAST, seed=1)
        transitions = []
        injector.register(
            "s0", ComponentType.SERVER,
            on_fail=lambda: transitions.append("fail"),
            on_repair=lambda: transitions.append("repair"),
        )
        _run(sim)
        assert total_failures(injector) > 5
        assert injector.failure_counts[ComponentType.SERVER] == transitions.count(
            "fail"
        )
        # Strict alternation: fail, repair, fail, repair, ...
        for i, kind in enumerate(transitions):
            assert kind == ("fail" if i % 2 == 0 else "repair")

    def test_event_log_is_time_ordered(self):
        sim = Simulation()
        injector = FaultInjector(sim, FAST, seed=2)
        injector.register("s0", ComponentType.SERVER)
        injector.register("b0", ComponentType.MEMORY_BLADE)
        _run(sim)
        times = [e.time_ms for e in injector.events]
        assert times == sorted(times)
        assert {e.kind for e in injector.events} == {"fail", "repair"}

    def test_unspecified_component_never_fails(self):
        sim = Simulation()
        injector = FaultInjector(sim, FAST, seed=1)
        component = injector.register("d0", ComponentType.DISK)
        injector.register("s0", ComponentType.SERVER)
        _run(sim)
        assert component.up
        assert component.failures == 0
        assert ComponentType.DISK not in injector.failure_counts

    def test_same_seed_same_schedule(self):
        logs = []
        for _ in range(2):
            sim = Simulation()
            injector = FaultInjector(sim, FAST, seed=42)
            injector.register("s0", ComponentType.SERVER)
            injector.register("b0", ComponentType.MEMORY_BLADE)
            _run(sim)
            logs.append([(e.time_ms, e.component, e.kind) for e in injector.events])
        assert logs[0] == logs[1]
        assert len(logs[0]) > 10

    def test_different_seed_different_schedule(self):
        logs = []
        for seed in (1, 2):
            sim = Simulation()
            injector = FaultInjector(sim, FAST, seed=seed)
            injector.register("s0", ComponentType.SERVER)
            _run(sim)
            logs.append([(e.time_ms, e.kind) for e in injector.events])
        assert logs[0] != logs[1]

    def test_tracker_accumulates_downtime(self):
        sim = Simulation()
        tracker = AvailabilityTracker()
        injector = FaultInjector(sim, FAST, seed=3, tracker=tracker)
        injector.register("s0", ComponentType.SERVER)
        _run(sim)
        tracker.finalize(sim.now)
        entity = tracker.entity("s0")
        assert entity.incidents == total_failures(injector)
        assert 0.0 < entity.downtime_ms < entity.observed_ms
        assert 0.0 < entity.availability < 1.0


class TestFailureDomain:
    def test_degrade_and_restore_fan_out_in_order(self):
        domain = FailureDomain("blade")
        calls = []
        domain.attach(lambda: calls.append("a-"), lambda: calls.append("a+"))
        domain.attach(lambda: calls.append("b-"), lambda: calls.append("b+"))
        domain.degrade_all()
        domain.restore_all()
        assert calls == ["a-", "b-", "a+", "b+"]

    def test_late_attach_to_degraded_domain(self):
        domain = FailureDomain("blade")
        domain.degrade_all()
        calls = []
        domain.attach(lambda: calls.append("down"), lambda: calls.append("up"))
        assert calls == ["down"]

    def test_register_domain_is_driven_by_faults(self):
        sim = Simulation()
        injector = FaultInjector(sim, FAST, seed=5)
        domain = injector.register_domain("blade", ComponentType.MEMORY_BLADE)
        hits = {"down": 0, "up": 0}

        def down():
            hits["down"] += 1

        def up():
            hits["up"] += 1

        domain.attach(down, up)
        domain.attach(down, up)  # two members share the blast radius
        _run(sim)
        failures = injector.failure_counts[ComponentType.MEMORY_BLADE]
        assert failures > 0
        assert hits["down"] == 2 * failures
