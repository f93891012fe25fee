"""Scenario-compiled runs are digest-identical to the hand-wired modules.

The compiler's contract is that a scenario is *only* a notation: for
EXT-8 (availability), EXT-10 (overload), and EXT-11 (trace
attribution) the compiled :class:`ClusterSimulator` configurations must
be bit-for-bit the ones the experiment modules construct, asserted by
``stream_digest()`` (and ``trace_digest`` for EXT-11) equality on
shrunk measurement windows.
"""

import pytest

from repro.cluster.balancer import ClusterSimulator, RetryPolicy
from repro.cluster.capacity import (
    open_loop_rate_rps,
    per_server_capacity_rps,
    surge_queue_cap,
)
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.experiments import availability
from repro.experiments.availability import _TRACE_LENGTH, _setups
from repro.experiments.trace_attribution import (
    TraceRunConfig,
    run_traced_design,
)
from repro.flashcache.analysis import disk_configuration
from repro.memsim.remote_memory import make_remote_memory_model
from repro.obs.export import trace_digest
from repro.scenario import (
    FaultsSpec,
    OverloadSpec,
    RetrySpec,
    ScenarioBuilder,
    TracingSpec,
    compile_scenario,
)
from repro.scenario.library import _EXT8_RETRY, _section36_tiers
from repro.workloads.suite import make_workload

WARMUP, MEASURE = 20, 100


def _shrunk_ext8():
    builder = ScenarioBuilder("ext8-shrunk")
    _section36_tiers(builder, servers=6, clients_per_server=6)
    return (
        builder
        .benchmark("websearch")
        .closed_loop(WARMUP, MEASURE)
        .seed(1)
        .overlay("healthy")
        .overlay("faulted",
                 faults=FaultsSpec(profile="stress", fault_seed=7),
                 retry=_EXT8_RETRY)
        .build()
    )


class TestExt8Availability:
    @pytest.fixture(scope="class")
    def compiled_digests(self):
        result = compile_scenario(_shrunk_ext8()).execute()
        return {record.run_id: record.digest for record in result.runs}

    @pytest.mark.parametrize("design", ["srvr1", "N1", "N2"])
    def test_healthy_and_faulted_match_hand_wired(
            self, compiled_digests, design):
        setup = {s.name: s for s in _setups()}[design]
        healthy, faulted = availability._simulate(
            setup, 6, 6, WARMUP, MEASURE, 1, 7,
            availability.STRESS_FAULT_PROFILE,
        )
        assert compiled_digests[f"{design}/healthy"] == \
            healthy.stream_digest()
        assert compiled_digests[f"{design}/faulted"] == \
            faulted.stream_digest()


class TestExt10Overload:
    WARMUP_MS, MEASURE_MS = 500.0, 4000.0
    SURGE_START_MS, SURGE_END_MS = 1000.0, 2000.0

    @pytest.fixture(scope="class")
    def compiled(self):
        builder = ScenarioBuilder("ext10-shrunk")
        _section36_tiers(builder, servers=4, clients_per_server=1)
        scenario = (
            builder
            .benchmark("websearch")
            .open_loop(utilization=0.6, warmup_ms=self.WARMUP_MS,
                       measure_ms=self.MEASURE_MS)
            .surge(multiplier=5.0, start_ms=self.SURGE_START_MS,
                   end_ms=self.SURGE_END_MS)
            .seed(3)
            .overlay("naive", retry=RetrySpec(),
                     overload=OverloadSpec(protected=False, queue_cap=None))
            .overlay("protected", retry=RetrySpec(jitter=True),
                     overload=OverloadSpec(queue_cap="auto"))
            .build()
        )
        result = compile_scenario(scenario).execute()
        return {record.run_id: record for record in result.runs}

    @pytest.mark.parametrize("design", ["srvr1", "N1", "N2"])
    def test_both_arms_match_hand_wired(self, compiled, design):
        # Mirror overload.run()'s per-design construction (which itself
        # now sizes via repro.cluster.capacity) on the shrunk windows.
        setup = {s.name: s for s in _setups()}[design]
        workload = make_workload("websearch")
        plat = setup.design.platform
        remote = disk_spec = None
        if setup.uses_remote_memory:
            remote = make_remote_memory_model(
                "websearch", local_fraction=0.25,
                trace_length=_TRACE_LENGTH)
        if setup.uses_flash:
            disk_spec = disk_configuration("remote-laptop+flash").disk_spec(
                "websearch")
        capacity = per_server_capacity_rps(
            plat, workload, remote_memory=remote, disk_spec=disk_spec,
            servers=4)
        base_rate = open_loop_rate_rps(0.6, capacity, 4)
        common = dict(
            platform=plat, workload=workload, servers=4,
            clients_per_server=1, seed=3,
            disk_model_factory=disk_spec.build if disk_spec else None,
            remote_memory=remote,
            arrivals=SurgeSchedule(
                base_rate_rps=base_rate, surge_multiplier=5.0,
                surge_start_ms=self.SURGE_START_MS,
                surge_end_ms=self.SURGE_END_MS),
            warmup_ms=self.WARMUP_MS, measure_ms=self.MEASURE_MS,
        )
        protected_retry = RetryPolicy(jitter=True)
        naive = ClusterSimulator(
            retry=RetryPolicy(), overload=OverloadPolicy.unprotected(),
            **common).run()
        protected = ClusterSimulator(
            retry=protected_retry,
            overload=OverloadPolicy(queue_cap=surge_queue_cap(
                capacity, protected_retry.timeout_ms)),
            **common).run()
        assert compiled[f"{design}/naive"].digest == naive.stream_digest()
        assert compiled[f"{design}/protected"].digest == \
            protected.stream_digest()

    def test_cohort_engages_where_eligible(self, compiled):
        # srvr1/N1 open-loop arms vectorize; N2's remote-memory blade
        # falls back to scalar with the reason surfaced.
        assert compiled["srvr1/naive"].engine_used == "cohort"
        assert compiled["N1/protected"].engine_used == "cohort"
        assert compiled["N2/naive"].engine_used == "scalar"
        assert compiled["N2/naive"].fallback_reason


class TestExt11TraceAttribution:
    @pytest.fixture(scope="class")
    def compiled(self):
        builder = ScenarioBuilder("ext11-shrunk")
        _section36_tiers(builder, servers=6, clients_per_server=6)
        scenario = (
            builder
            .benchmark("websearch")
            .closed_loop(WARMUP, MEASURE)
            .seed(1)
            .overlay("traced-faulted",
                     faults=FaultsSpec(profile="stress", fault_seed=7),
                     retry=_EXT8_RETRY,
                     tracing=TracingSpec(sample_rate=1.0, trace_seed=17))
            .build()
        )
        result = compile_scenario(scenario).execute()
        return {record.tier: record for record in result.runs}

    @pytest.mark.parametrize("design", ["srvr1", "N1", "N2"])
    def test_results_and_traces_match_hand_wired(self, compiled, design):
        payload = run_traced_design(TraceRunConfig(
            design=design, warmup=WARMUP, measure=MEASURE))
        record = compiled[design]
        assert record.digest == payload["result"].stream_digest()
        assert trace_digest([(design, record.tracer.traces)]) == \
            trace_digest([(design, payload["tracer"].traces)])
