"""Named scenarios shipped with the repository.

Three of these are the configurations of experiment modules -- EXT-8
(availability under faults), EXT-10 (metastable overload), EXT-11
(traced tail attribution).  Each factory takes its module's ``run()``
keywords, and the module compiles and executes the scenario it returns.
``tests/scenario/test_digest_equality.py`` holds the compiled runs
digest-identical to direct :class:`ClusterSimulator` constructions.
The fourth, ``multirack-diurnal``, is the flagship: a four-rack
ensemble driven through a full diurnal day (24 hourly segments, three
regional populations, an evening flash crowd) at a modeled population
of millions of users.

Each factory writes its scenario as the frozen specs the loader and
the compiler use, and ends in :meth:`Scenario.check`, so a bad keyword
raises one aggregated :class:`ScenarioValidationError`.  The YAML files
under ``examples/scenarios/`` are the serialized forms of these
factories (round-trip asserted in the tests); edit either side and the
suite will point at the drift.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.scenario.spec import (
    ClosedLoopSpec,
    DiurnalSpec,
    FaultsSpec,
    FlashSpec,
    OpenLoopSpec,
    OverlaySpec,
    OverloadSpec,
    RegionSpec,
    RemoteMemorySpec,
    RetrySpec,
    Scenario,
    SurgeSpec,
    TierSpec,
    TopologySpec,
    TracingSpec,
    TrafficSpec,
    WorkloadSpec,
)

#: EXT-8/EXT-11's degradation stack: timeout at the websearch QoS bound,
#: three bounded retries with backoff, hedge at half the timeout.
_EXT8_RETRY = RetrySpec(
    timeout_ms=500.0, max_retries=3, backoff_base_ms=20.0,
    hedge_after_ms=250.0,
)

#: The section 3.6 design ladder: each design's tier options beyond its
#: size.  srvr1's 1U servers each own their fans and PSU (an enclosure
#: fault hits one server); N1/N2 share one enclosure across the tier;
#: N2 adds the memory blade and flash cache.
_SECTION36 = {
    "srvr1": dict(enclosure_size=1),
    "N1": {},
    "N2": dict(remote_memory=RemoteMemorySpec(), flash=FlashSpec()),
}

#: Every library scenario serves the websearch benchmark.
_WEBSEARCH = WorkloadSpec(benchmark="websearch")


def _section36_tiers(*, servers: int, clients_per_server: int) -> TopologySpec:
    """The section 3.6 design ladder: srvr1, N1, N2 (blade + flash)."""
    return TopologySpec(tiers=tuple(
        TierSpec(name=name, design=name, servers=servers,
                 clients_per_server=clients_per_server, **options)
        for name, options in _SECTION36.items()
    ))


def ext8_availability(*, servers: int = 6, clients_per_server: int = 6,
                      warmup: int = 200, measure: int = 1800, seed: int = 1,
                      fault_seed: int = 7) -> Scenario:
    """EXT-8 as a scenario: srvr1/N1/N2, healthy vs fault-injected."""
    return Scenario(
        name="ext8-availability",
        description=(
            "Section 3.6 designs healthy and under accelerated fault "
            "injection with the full degradation stack (EXT-8)."
        ),
        seed=seed,
        topology=_section36_tiers(servers=servers,
                                  clients_per_server=clients_per_server),
        workload=_WEBSEARCH,
        traffic=TrafficSpec(closed_loop=ClosedLoopSpec(
            warmup_requests=warmup, measure_requests=measure)),
        overlays=(
            OverlaySpec("healthy"),
            OverlaySpec("faulted",
                        faults=FaultsSpec(profile="stress",
                                          fault_seed=fault_seed),
                        retry=_EXT8_RETRY),
        ),
    ).check()


def ext10_overload(*, servers: int = 4, seed: int = 3,
                   load_fraction: float = 0.6, surge_multiplier: float = 5.0,
                   warmup_ms: float = 2000.0, surge_start_ms: float = 6000.0,
                   surge_end_ms: float = 11_000.0,
                   measure_ms: float = 22_000.0) -> Scenario:
    """EXT-10 as a scenario: a 5x surge, naive vs protected stacks."""
    return Scenario(
        name="ext10-overload",
        description=(
            "Metastable overload: each design offered 60% of analytic "
            "capacity with a 5x surge, naive retry stack vs the full "
            "overload-protection stack (EXT-10)."
        ),
        seed=seed,
        topology=_section36_tiers(servers=servers, clients_per_server=1),
        workload=_WEBSEARCH,
        traffic=TrafficSpec(open_loop=OpenLoopSpec(
            utilization=load_fraction, warmup_ms=warmup_ms,
            measure_ms=measure_ms,
            surge=SurgeSpec(multiplier=surge_multiplier,
                            start_ms=surge_start_ms, end_ms=surge_end_ms),
        )),
        overlays=(
            OverlaySpec("naive", retry=RetrySpec(),
                        overload=OverloadSpec(protected=False,
                                              queue_cap=None)),
            OverlaySpec("protected", retry=RetrySpec(jitter=True),
                        overload=OverloadSpec(queue_cap="auto")),
        ),
    ).check()


def ext11_trace_attribution(
    *, servers: int = 6, clients_per_server: int = 6, warmup: int = 200,
    measure: int = 1800, seed: int = 1, fault_seed: int = 7,
    sample_rate: float = 1.0, trace_seed: int = 17,
) -> Scenario:
    """EXT-11 as a scenario: the faulted ladder with tracing enabled."""
    return Scenario(
        name="ext11-trace-attribution",
        description=(
            "Critical-path tail attribution: the EXT-8 faulted runs with "
            "deterministic per-request tracing (EXT-11)."
        ),
        seed=seed,
        topology=_section36_tiers(servers=servers,
                                  clients_per_server=clients_per_server),
        workload=_WEBSEARCH,
        traffic=TrafficSpec(closed_loop=ClosedLoopSpec(
            warmup_requests=warmup, measure_requests=measure)),
        overlays=(OverlaySpec(
            "traced-faulted",
            faults=FaultsSpec(profile="stress", fault_seed=fault_seed),
            retry=_EXT8_RETRY,
            tracing=TracingSpec(sample_rate=sample_rate,
                                trace_seed=trace_seed)),),
    ).check()


def multirack_diurnal() -> Scenario:
    """Flagship: four racks through a diurnal day at millions of users.

    Each rack serves a 16-server websearch tier provisioned at 65% of
    analytic capacity at the global peak; the offered load follows a
    3:1 diurnal curve blended from three regional populations (whose
    peaks are time-zone shifted) with a 3x flash crowd in the busiest
    evening hour, absorbed by the protected serving stack.
    """
    return Scenario(
        name="multirack-diurnal",
        description=(
            "Four-rack websearch ensemble over a full diurnal day: "
            "three time-zone-shifted regions, an evening flash crowd, "
            "overload protection on -- the warehouse-scale serving "
            "pattern the paper's TCO math provisions for."
        ),
        seed=11,
        topology=TopologySpec(racks=4, tiers=(
            TierSpec("web", design="N1", servers=16, enclosure_size=8),)),
        workload=_WEBSEARCH,
        traffic=TrafficSpec(open_loop=OpenLoopSpec(
            utilization=0.65, warmup_ms=2000.0,
            diurnal=DiurnalSpec(peak_to_trough=3.0, peak_hour=20.0,
                                sim_ms_per_hour=4000.0, flash_crowd_hour=21,
                                flash_crowd_multiplier=3.0),
            regions=(
                RegionSpec("us-east", weight=0.5, peak_hour_offset=0.0),
                RegionSpec("eu-west", weight=0.3, peak_hour_offset=-5.0),
                RegionSpec("ap-south", weight=0.2, peak_hour_offset=9.5),
            ),
        )),
        overlays=(OverlaySpec("protected", retry=RetrySpec(jitter=True),
                              overload=OverloadSpec(queue_cap="auto")),),
    ).check()


#: name -> scenario factory, called with its defaults (the
#: ``repro-scenario`` registry).
LIBRARY: Dict[str, Callable[[], Scenario]] = {
    "ext8-availability": ext8_availability,
    "ext10-overload": ext10_overload,
    "ext11-trace-attribution": ext11_trace_attribution,
    "multirack-diurnal": multirack_diurnal,
}


def library_scenario(name: str) -> Scenario:
    try:
        factory = LIBRARY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown library scenario {name!r}; known: {sorted(LIBRARY)}"
        ) from exc
    return factory()


__all__ = [
    "LIBRARY",
    "library_scenario",
    "ext8_availability",
    "ext10_overload",
    "ext11_trace_attribution",
    "multirack_diurnal",
]
