"""Scenario execution is bit-identical across worker counts."""

from repro.scenario import (
    DiurnalSpec,
    OpenLoopSpec,
    OverlaySpec,
    OverloadSpec,
    RegionSpec,
    RetrySpec,
    Scenario,
    TierSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    compile_scenario,
)
from repro.scenario.compiler import derive_seed


def _small_diurnal():
    """A 2-rack diurnal day with tiny windows (fast but multi-plan)."""
    return Scenario(
        name="determinism-diurnal",
        seed=11,
        topology=TopologySpec(
            tiers=(TierSpec("web", design="N1", servers=4),), racks=2),
        workload=WorkloadSpec(benchmark="websearch"),
        traffic=TrafficSpec(open_loop=OpenLoopSpec(
            utilization=0.5, warmup_ms=200.0,
            diurnal=DiurnalSpec(sim_ms_per_hour=300.0, flash_crowd_hour=21),
            regions=(RegionSpec("us", weight=0.6),
                     RegionSpec("eu", weight=0.4, peak_hour_offset=-5.0)),
        )),
        overlays=(OverlaySpec("protected", retry=RetrySpec(jitter=True),
                              overload=OverloadSpec(queue_cap="auto")),),
    ).check()


def test_serial_vs_jobs4_digest_identical():
    compiled = compile_scenario(_small_diurnal())
    serial = compiled.execute(jobs=1)
    parallel = compiled.execute(jobs=4)
    assert serial.digest() == parallel.digest()
    assert [r.run_id for r in serial.runs] == \
        [r.run_id for r in parallel.runs]
    assert [r.digest for r in serial.runs] == \
        [r.digest for r in parallel.runs]


def test_recompile_is_deterministic():
    a = compile_scenario(_small_diurnal())
    b = compile_scenario(_small_diurnal())
    assert a.plans == b.plans


def test_rack_and_segment_seeds_are_distinct():
    compiled = compile_scenario(_small_diurnal())
    seeds = {(p.rack, p.segment): p.seed for p in compiled.plans}
    assert len(set(seeds.values())) == len(seeds)


def test_scale_reports_modeled_population():
    compiled = compile_scenario(_small_diurnal())
    scale = compiled.scale()
    assert scale["racks"] == 2.0
    assert scale["servers_total"] == 8.0
    assert scale["modeled_users"] > 0
    assert scale["modeled_requests_per_day"] > 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_distinct_streams(self):
        seeds = {derive_seed(7, rack, segment, stream)
                 for rack in range(4) for segment in range(4)
                 for stream in range(2)}
        assert len(seeds) == 32
