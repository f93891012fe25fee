"""Scenario-compiled runs are digest-identical to direct constructions.

The compiler's contract is that a scenario is *only* a notation.  The
EXT-8 (availability), EXT-10 (overload), and EXT-11 (trace
attribution) experiment modules run their library scenarios, so this
module is the compiler's reference for the section 3.6 ladder: each
compiled :class:`ClusterSimulator` configuration must be bit-for-bit
the one built by hand below, asserted by ``stream_digest()`` (and
``trace_digest`` for EXT-11) equality on shrunk measurement windows.
"""

import pytest

from repro.cluster.balancer import ClusterSimulator, RetryPolicy
from repro.cluster.capacity import (
    open_loop_rate_rps,
    per_server_capacity_rps,
    surge_queue_cap,
)
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.experiments.availability import _TRACE_LENGTH, _setups
from repro.faults import STRESS_FAULT_PROFILE
from repro.flashcache.analysis import disk_configuration
from repro.memsim.remote_memory import make_remote_memory_model
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import trace_digest
from repro.scenario import (
    ClosedLoopSpec,
    OverlaySpec,
    RedundancySpec,
    RemoteMemorySpec,
    Scenario,
    TierSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    compile_scenario,
)
from repro.scenario.library import (
    ext8_availability,
    ext10_overload,
    ext11_trace_attribution,
)
from repro.workloads.suite import make_workload

WARMUP, MEASURE = 20, 100


def _ladder_rung(design, servers, clients_per_server, seed):
    """One design's hand-wired cluster kwargs on websearch."""
    setup = {s.name: s for s in _setups()}[design]
    remote = disk_spec = None
    if setup.uses_remote_memory:
        remote = make_remote_memory_model(
            "websearch", local_fraction=0.25, trace_length=_TRACE_LENGTH)
    if setup.uses_flash:
        disk_spec = disk_configuration("remote-laptop+flash").disk_spec(
            "websearch")
    return dict(
        platform=setup.design.platform, workload=make_workload("websearch"),
        servers=servers, clients_per_server=clients_per_server, seed=seed,
        disk_spec=disk_spec, remote_memory=remote,
    )


def _faulted(design, servers):
    """The stress profile and EXT-8's degradation stack.  srvr1's 1U
    servers each own their fans and PSU; N1/N2 share one enclosure."""
    return dict(
        faults=STRESS_FAULT_PROFILE, fault_seed=7,
        retry=RetryPolicy(timeout_ms=500.0, max_retries=3,
                          backoff_base_ms=20.0, hedge_after_ms=250.0),
        enclosure_size=1 if design == "srvr1" else servers,
    )


class TestExt8Availability:
    @pytest.fixture(scope="class")
    def compiled_digests(self):
        scenario = ext8_availability(warmup=WARMUP, measure=MEASURE)
        result = compile_scenario(scenario).execute()
        return {record.run_id: record.digest for record in result.runs}

    @pytest.mark.parametrize("design", ["srvr1", "N1", "N2"])
    def test_healthy_and_faulted_match_hand_wired(
            self, compiled_digests, design):
        common = dict(_ladder_rung(design, 6, 6, seed=1),
                      warmup_requests=WARMUP, measure_requests=MEASURE)
        healthy = ClusterSimulator(**common).run()
        faulted = ClusterSimulator(**common, **_faulted(design, 6)).run()
        assert compiled_digests[f"{design}/healthy"] == \
            healthy.stream_digest()
        assert compiled_digests[f"{design}/faulted"] == \
            faulted.stream_digest()


class TestExt10Overload:
    WARMUP_MS, MEASURE_MS = 500.0, 4000.0
    SURGE_START_MS, SURGE_END_MS = 1000.0, 2000.0

    @pytest.fixture(scope="class")
    def compiled(self):
        scenario = ext10_overload(
            warmup_ms=self.WARMUP_MS, measure_ms=self.MEASURE_MS,
            surge_start_ms=self.SURGE_START_MS,
            surge_end_ms=self.SURGE_END_MS,
        )
        result = compile_scenario(scenario).execute()
        return {record.run_id: record for record in result.runs}

    @pytest.mark.parametrize("design", ["srvr1", "N1", "N2"])
    def test_both_arms_match_hand_wired(self, compiled, design):
        common = _ladder_rung(design, 4, 1, seed=3)
        capacity = per_server_capacity_rps(
            common["platform"], common["workload"],
            remote_memory=common["remote_memory"],
            disk_spec=common["disk_spec"], servers=4)
        base_rate = open_loop_rate_rps(0.6, capacity, 4)
        common.update(
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


class TestExt11TraceAttribution:
    @pytest.fixture(scope="class")
    def compiled(self):
        scenario = ext11_trace_attribution(warmup=WARMUP, measure=MEASURE)
        result = compile_scenario(scenario).execute()
        return {record.tier: record for record in result.runs}

    @pytest.mark.parametrize("design", ["srvr1", "N1", "N2"])
    def test_results_and_traces_match_hand_wired(self, compiled, design):
        tracer = Tracer(sample_rate=1.0, seed=17)
        result = ClusterSimulator(
            **_ladder_rung(design, 6, 6, seed=1),
            warmup_requests=WARMUP, measure_requests=MEASURE,
            tracer=tracer, metrics=MetricsRegistry(),
            **_faulted(design, 6),
        ).run()
        record = compiled[design]
        assert record.digest == result.stream_digest()
        assert trace_digest([(design, record.tracer.traces)]) == \
            trace_digest([(design, tracer.traces)])


class TestRedundancyOverMixedTiers:
    """A redundancy overlay protects the tiers with a memory blade; a
    tier without one runs as if the overlay had no redundancy block."""

    BLADE = TierSpec("n2", design="N2", servers=2, clients_per_server=2,
                     remote_memory=RemoteMemorySpec())
    PLAIN = TierSpec("plain", design="srvr1", servers=2, clients_per_server=2)

    @staticmethod
    def _runs(tiers, redundancy):
        scenario = Scenario(
            name="mixed",
            topology=TopologySpec(tiers=tiers),
            workload=WorkloadSpec(benchmark="websearch"),
            traffic=TrafficSpec(closed_loop=ClosedLoopSpec(WARMUP, MEASURE)),
            overlays=(OverlaySpec("protected", redundancy=redundancy),),
        )
        return {record.run_id: record
                for record in compile_scenario(scenario).execute().runs}

    def test_only_the_blade_tier_is_protected(self):
        mixed = self._runs((self.BLADE, self.PLAIN), RedundancySpec())
        assert mixed["n2/protected"].result.recovery_report is not None
        assert mixed["plain/protected"].result.recovery_report is None
        alone = self._runs((self.BLADE,), RedundancySpec())
        assert mixed["n2/protected"].digest == alone["n2/protected"].digest
        bare = self._runs((self.BLADE, self.PLAIN), None)
        assert mixed["plain/protected"].digest == \
            bare["plain/protected"].digest
