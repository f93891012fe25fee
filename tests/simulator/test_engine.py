"""Tests of the discrete-event engine."""

import pytest

from tests.simulator.engine import Simulation


def pending_events(sim: Simulation) -> int:
    """Queued entries, including cancelled timers not yet reclaimed."""
    return len(sim._heap)


class TestSimulation:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        sim = Simulation()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(3.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_times(self):
        sim = Simulation()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.schedule(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5, 7.0]

    def test_nested_scheduling_is_relative_to_now(self):
        sim = Simulation()
        seen = []

        def first():
            sim.schedule(3.0, lambda: seen.append(sim.now))

        sim.schedule(2.0, first)
        sim.run()
        assert seen == [5.0]

    def test_stop_halts_processing(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        assert pending_events(sim) == 1

    def test_run_until_leaves_future_events(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(2))
        sim.run(until_ms=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 2]

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_round_off_negative_delay_clamps_to_now(self):
        # An absolute target computed as t - now can land one ulp in the
        # past; that must run immediately, not raise.
        sim = Simulation()
        seen = []
        sim.schedule(0.1 + 0.2, lambda: sim.schedule_at(0.3, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [pytest.approx(0.3)]

    def test_schedule_at_tiny_past_target_clamps(self):
        sim = Simulation()
        seen = []
        sim.schedule(
            1.0, lambda: sim.schedule_at(sim.now - 1e-10, lambda: seen.append(sim.now))
        )
        sim.run()
        assert len(seen) == 1

    def test_genuinely_past_target_still_rejected(self):
        sim = Simulation()

        def late():
            with pytest.raises(ValueError):
                sim.schedule_at(sim.now - 1.0, lambda: None)

        sim.schedule(5.0, late)
        sim.run()


class TestTimers:
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulation()
        seen = []
        timer = sim.schedule_timer(5.0, lambda: seen.append("timer"))
        sim.schedule(1.0, lambda: sim.cancel(timer))
        sim.run()
        assert seen == []

    def test_cancel_is_lazy_then_compacts(self):
        sim = Simulation()
        fired = []
        timers = [
            sim.schedule_timer(100.0 + i, lambda i=i: fired.append(i))
            for i in range(10)
        ]
        sim.schedule(50.0, lambda: fired.append("live"))
        # Below the compaction threshold the entries stay queued...
        sim.cancel(timers[0])
        assert pending_events(sim) == 11
        # ...cancelling a majority sweeps the heap in place (at most one
        # not-yet-reclaimed entry can remain below the threshold).
        for timer in timers[1:]:
            sim.cancel(timer)
        assert pending_events(sim) <= 2
        sim.run()
        assert fired == ["live"]

    def test_cancel_after_fire_is_noop(self):
        sim = Simulation()
        seen = []
        timer = sim.schedule_timer(1.0, lambda: seen.append("t"))
        sim.run()
        sim.cancel(timer)  # stale handle: harmless
        sim.schedule(1.0, lambda: seen.append("after"))
        sim.run()
        assert seen == ["t", "after"]

    def test_cancelled_and_live_interleaved_order_preserved(self):
        sim = Simulation()
        order = []
        for i in range(20):
            sim.schedule(float(i), lambda i=i: order.append(i))
        dead = [sim.schedule_timer(float(i) + 0.5, lambda: order.append("x"))
                for i in range(20)]
        for timer in dead:
            sim.cancel(timer)
        sim.run()
        assert order == list(range(20))
