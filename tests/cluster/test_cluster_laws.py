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
"""

from math import sqrt

import pytest

from repro.scenario import compile_scenario
from repro.scenario.compiler import _build_cluster_simulator
from repro.scenario.library import ext8_availability

K = 2.0
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
    if engine == "scalar":
        result = sim._run_scalar()
    else:
        result = sim.run()
        assert sim.engine_used == "cohort", sim.fallback_reason
    clients = plan.tier.servers * plan.tier.clients_per_server
    think = sim._workload.profile.think_time_ms
    throughput = result.throughput_rps / 1000.0
    error = abs(throughput * (result.mean_response_ms + think) - clients) / clients
    bound = K / sqrt(MEASURE) + clients / MEASURE
    assert error <= bound, (error, bound)
