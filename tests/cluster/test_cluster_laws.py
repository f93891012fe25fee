"""The closed-loop response-time law on both cluster engines.

Digest equality only proves that the cohort engine and the scalar
oracle agree.  N = X * (R + Z) holds for any correct closed-loop
simulation, so it checks each engine against something that is not a
copy of itself: every one of the N clients is always either thinking
(mean Z) or waiting on a request, whose response time R includes its
retries, backoffs and health waits, and a request that gives up still
completes (it is counted, at its full elapsed time).

The cells are the section 3.6 designs (srvr1, N1, N2) healthy and under
the stress fault profile, EXT-8's shape with 2 clients per server and a
2,000-completion window.  As in ``tests/simulator/test_operational_laws.py``
the tolerance is K/sqrt(n) plus N/n (the window edges cut through up to
N requests in flight), with one K for every cell: 1.5x the largest K any
cell needed on either engine over seeds 1-5 (1.36).

The recovery cells are EXT-13's arms at 1 client per server: the blade
storm unprotected, 2-replica and 4+1 parity, and the 2-replica rolling
drain.  Their K is derived by the same rule (1.5x 1.35, the parity
storm's need); one client per server keeps a lost client a large share
of N, where at EXT-13's 8 the storms' own spread would hide it.  The
storm and drain scripts also fix the recovery report's accounting.
"""

from functools import lru_cache
from math import sqrt

import pytest

from repro.experiments.redundancy import (
    BLADE_STORM,
    RedundancyRunConfig,
    _redundancy_simulator,
)
from repro.scenario import compile_scenario
from repro.scenario.compiler import _build_cluster_simulator
from repro.scenario.library import ext8_availability
from tests.cluster.reference_balancer import run_scalar

K = 2.0
K_RECOVERY = 1.5 * 1.35
MEASURE = 2000

PLANS = {
    plan.run_id: plan
    for plan in compile_scenario(
        ext8_availability(clients_per_server=2, warmup=200, measure=MEASURE)
    ).plans
}


@pytest.mark.parametrize("engine", ["scalar", "cohort"])
@pytest.mark.parametrize("run_id", sorted(PLANS))
def test_closed_loop_response_time_law(run_id, engine):
    plan = PLANS[run_id]
    sim, _, _ = _build_cluster_simulator(plan)
    result = run_scalar(sim) if engine == "scalar" else sim.run()
    clients = plan.tier.servers * plan.tier.clients_per_server
    _assert_response_time_law(result, sim, clients, K)


def _assert_response_time_law(result, sim, clients, k):
    think = sim._workload.profile.think_time_ms
    throughput = result.throughput_rps / 1000.0
    error = abs(throughput * (result.mean_response_ms + think) - clients) / clients
    bound = k / sqrt(MEASURE) + clients / MEASURE
    assert error <= bound, (error, bound)


#: Recovery cell -> EXT-13 (scenario, protection arm).
RECOVERY_CELLS = {
    "storm/unprotected": ("storm", "unprotected"),
    "storm/replica": ("storm", "replica"),
    "storm/parity": ("storm", "parity"),
    "rolling/replica": ("rolling", "replica"),
}


def _recovery_config(cell):
    scenario, policy = RECOVERY_CELLS[cell]
    return RedundancyRunConfig(
        scenario=scenario, policy=policy, clients_per_server=1,
        warmup=200, measure=MEASURE, traced=False,
    )


@lru_cache(maxsize=None)
def _recovery_run(cell, engine):
    sim, _, _ = _redundancy_simulator(_recovery_config(cell))
    return sim, run_scalar(sim) if engine == "scalar" else sim.run()


@pytest.mark.parametrize("engine", ["scalar", "cohort"])
@pytest.mark.parametrize("cell", sorted(RECOVERY_CELLS))
def test_recovery_response_time_law(cell, engine):
    config = _recovery_config(cell)
    sim, result = _recovery_run(cell, engine)
    clients = config.servers * config.clients_per_server
    _assert_response_time_law(result, sim, clients, K_RECOVERY)


@pytest.mark.parametrize(
    "cell", ["storm/parity", "storm/replica", "storm/unprotected"]
)
def test_storm_accounting_follows_the_script(cell):
    (fault,) = BLADE_STORM
    report = _recovery_run(cell, "cohort")[1].recovery_report
    assert report.blade_failures == report.blade_repairs == 1
    assert report.blade_downtime_ms == {
        fault.blade: fault.repair_ms - fault.fail_ms
    }


def test_replica_storm_loses_nothing_and_rebuilds():
    report = _recovery_run("storm/replica", "cohort")[1].recovery_report
    assert report.audit.lost == 0
    assert report.pages_rebuilt > 0


def test_closed_drain_windows_are_accounted_in_full():
    # EXT-13's rolling plan: its last window closes at 24 s, minutes
    # before this 2,200-completion run ends.
    sim, result = _recovery_run("rolling/replica", "cohort")
    windows = sim._maintenance.windows
    report = result.recovery_report
    assert report.drains == len(windows)
    assert report.drain_ms == pytest.approx(
        sum(w.duration_ms for w in windows), rel=1e-12
    )
