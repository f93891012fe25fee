"""Tests of multi-server FCFS resources."""

import pytest

from tests.simulator.engine import Simulation
from tests.simulator.resources import Resource


def _run_jobs(servers, services):
    """Submit ``services`` at t=0; return completion times in order."""
    sim = Simulation()
    resource = Resource(sim, "r", servers)
    completions = []
    for i, service in enumerate(services):
        resource.acquire(service, lambda i=i: completions.append((i, sim.now)))
    sim.run()
    return dict(completions), resource


class TestResource:
    def test_single_server_serializes(self):
        times, _ = _run_jobs(1, [5.0, 3.0, 2.0])
        assert times == {0: 5.0, 1: 8.0, 2: 10.0}

    def test_two_servers_run_in_parallel(self):
        times, _ = _run_jobs(2, [5.0, 3.0, 2.0])
        # Job 2 starts when job 1 (the 3 ms one) finishes at t=3.
        assert times == {0: 5.0, 1: 3.0, 2: 5.0}

    def test_fcfs_ordering(self):
        times, _ = _run_jobs(1, [1.0] * 5)
        assert [times[i] for i in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_utilization_and_counters(self):
        times, resource = _run_jobs(2, [4.0, 4.0, 4.0, 4.0])
        assert resource.stats.completions == 4
        assert resource.stats.peak_queue == 2

    def test_zero_service_time_allowed(self):
        times, _ = _run_jobs(1, [0.0, 0.0])
        assert times == {0: 0.0, 1: 0.0}

    def test_negative_service_rejected(self):
        sim = Simulation()
        r = Resource(sim, "r", 1)
        with pytest.raises(ValueError):
            r.acquire(-1.0, lambda: None)

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            Resource(Simulation(), "r", 0)
