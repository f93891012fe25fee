"""Servers leaving and rejoining rotation in the cluster simulator.

The paper's design philosophy moves reliability into the software stack
("high-availability ... moved into the application stack"); the cluster
keeps serving when servers leave rotation, at reduced capacity.  A
:class:`~repro.faults.recovery.MaintenancePlan` drain window takes a
server out of rotation on a fixed schedule and draws no RNG: the server
finishes its in-flight work and gets no new dispatches, and dispatch
filters it exactly as it filters a down server.
"""

from repro.cluster.balancer import ClusterSimulator, Dispatch
from repro.faults.recovery import MaintenancePlan, MaintenanceWindow
from repro.platforms.catalog import platform
from repro.workloads.suite import make_workload

#: Longer than any run here: the server stays out for the rest of it.
FOREVER_MS = 1e9


def _cluster(drains=(), servers=4, dispatch=Dispatch.LEAST_OUTSTANDING,
             seed=1, measure_requests=2000):
    """``drains`` holds ``(server, start_ms, duration_ms)`` windows."""
    return ClusterSimulator(
        platform("desk"),
        make_workload("webmail"),
        servers=servers,
        clients_per_server=10,
        dispatch=dispatch,
        seed=seed,
        warmup_requests=200,
        measure_requests=measure_requests,
        maintenance=MaintenancePlan(
            tuple(MaintenanceWindow(*window) for window in drains)
        ),
    )


class TestFailureInjection:
    def test_cluster_survives_a_crash(self):
        result = _cluster(drains=[(2, 20_000.0, FOREVER_MS)]).run()
        assert result.throughput_rps > 0
        # The drained server stops early: far fewer completions.
        survivors = [c for i, c in enumerate(result.server_completions) if i != 2]
        assert result.server_completions[2] < min(survivors) / 2

    def test_throughput_degrades_but_not_collapses(self):
        healthy = _cluster().run()
        degraded = _cluster(drains=[(1, 0.0, FOREVER_MS)]).run()
        # One of four servers out from the start: ~3/4 the capacity, and
        # never below half of it.
        assert degraded.throughput_rps < healthy.throughput_rps
        assert degraded.throughput_rps > 0.5 * healthy.throughput_rps

    def test_immediate_failure_gets_no_requests(self):
        result = _cluster(drains=[(0, 0.0, FOREVER_MS)]).run()
        assert result.server_completions[0] == 0

    def test_round_robin_also_avoids_dead_servers(self):
        result = _cluster(
            drains=[(3, 0.0, FOREVER_MS)], dispatch=Dispatch.ROUND_ROBIN
        ).run()
        assert result.server_completions[3] == 0
        assert result.throughput_rps > 0

    def test_multiple_failures(self):
        result = _cluster(
            drains=[(1, 0.0, FOREVER_MS), (2, 30_000.0, FOREVER_MS)]
        ).run()
        assert result.server_completions[1] == 0
        assert result.throughput_rps > 0


class TestRecovery:
    def test_recovered_server_rejoins_rotation(self):
        result = _cluster(drains=[(2, 0.0, FOREVER_MS)]).run()
        recovered = _cluster(
            drains=[(2, 0.0, 60_000.0)], measure_requests=2500
        ).run()
        # The restored server serves a meaningful share after rejoining.
        assert recovered.server_completions[2] > 100
        assert result.server_completions[2] == 0
