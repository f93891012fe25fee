"""In-run cost budgets of the hot-path layers and the trace kernel.

Each budget times a *reference* and a *candidate* that do the same work
in the same process -- asserted with ``==``, ``stream_digest()`` or
counter equality before any timing -- and bounds the candidate/reference
ratio of their CPU times:

- an overhead budget bounds what a layer may add to a run that does not
  use it: a zero-sampling tracer, fail-slow detection on a healthy
  fleet, a healthy redundant blade group, the scenario compiler;
- a speedup floor ``F`` of a fast engine or exporter over its oracle
  is the budget candidate/reference <= ``1/F``.

Both sides run on the same machine at the same moment, so no budget
depends on the host's speed, but every one of them reads a clock.
CONTRIBUTING.md keeps tests that depend on wall-clock out of tier-1, so
CI runs this module on its own on every push::

    python -m pytest benchmarks/test_budgets.py -q
"""

from __future__ import annotations

import math
import time
from typing import Callable, List

import pytest

from repro.cluster.balancer import ClusterSimulator, RetryPolicy
from repro.cluster.overload import OverloadPolicy, SurgeSchedule
from repro.faults.failslow import AdaptiveTimeoutPolicy, DetectionPolicy
from repro.faults.recovery import RedundancyConfig
from repro.memsim.redundancy import RedundancyPolicy
from repro.memsim.remote_memory import make_remote_memory_model
from repro.memsim.trace import WORKLOAD_TRACES, cached_trace
from repro.memsim.twolevel import TwoLevelMemorySimulator
from repro.obs import export
from repro.obs.tracer import Tracer
from repro.perf.kernels import miss_ratio_curve
from repro.platforms.catalog import platform
from repro.scenario.compiler import (
    _build_cluster_simulator,
    compile_scenario,
    run_scenario,
)
from repro.scenario.library import ext8_availability, ext11_trace_attribution
from repro.scenario.spec import (
    OpenLoopSpec,
    Scenario,
    TierSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
)
from repro.workloads.suite import make_workload
from tests.cluster.reference_balancer import run_scalar
from tests.memsim import reference_twolevel
from tests.obs import reference_export

#: Measurements a budget may miss before it fails: noise reads high in
#: one round and not the next, a real regression reads high in all.
ROUNDS = 3

#: The limit of every overhead budget.
OVERHEAD_LIMIT = 1.05

#: The cohort serving-tier engine over its scalar oracle: 5x the
#: pre-cohort scalar engine's rate, which reads 5 / 1.14 = 4.4x against
#: today's oracle (its demand sampling got 1.14x faster since).
COHORT_SPEEDUP_FLOOR = 4.4

#: The closed loop on the cohort engine over the scalar oracle, on two
#: faulted section 3.6 shapes: 0.7x the median of 16 best-of-3 readings
#: measured when the closed loop, remote memory, disk specs, the tracer
#: and faults moved onto the cohort engine (2.32x, 2.01x to 2.92x; and
#: 2.67x, 1.94x to 3.07x; CPython 3.11 on a 2-vCPU x86-64 VM).  The
#: traced shape is EXT-11's srvr1 run: on its N2 run the span and flash
#: work both engines share leaves a 2.08x median, too close to what
#: identical work on both sides reads on this VM (up to 1.5x) for the
#: budget to tell a scalar run reported as cohort from the real thing.
CLOSED_LOOP_SPEEDUP_FLOORS = {
    "ext8-N2-faulted": 0.7 * 2.32,
    "ext11-srvr1-traced-faulted": 0.7 * 2.67,
}

#: One stack-distance pass over 16 scalar LRU replays: 0.7x the 5.799x
#: measured when the kernel landed.
MRC_SPEEDUP_FLOOR = 0.7 * 5.799

#: Both trace files of a traced EXT-11 ladder from the direct span
#: formatters, against the dict-and-``json.dump`` oracle writers: 0.7x
#: the 2.88x measured when the formatters landed (median of 18 best-of-4
#: readings, 2.42x to 3.93x, CPython 3.11 on a 2-vCPU x86-64 VM).
EXPORT_SPEEDUP_FLOOR = 0.7 * 2.88


def assert_within(
    budget: float,
    reference: Callable[[], object],
    candidate: Callable[[], object],
    pairs: int,
) -> None:
    """Fail unless the candidate/reference CPU-time ratio is within
    ``budget`` in at least one of ``ROUNDS`` measurements.

    Each side first runs once untimed.  A measurement times ``pairs``
    pairs of runs with ``time.process_time``, alternating which side
    runs first from pair to pair, and divides the candidate's best time
    by the reference's: each side's run least disturbed by scheduler
    jitter, frequency drift or a noisy neighbour.  The second run of a
    pair is systematically cheaper on a small VM; since each side runs
    second in some pairs, identical work reads 1.0 instead of favouring
    the side that always runs second.  On a loud machine the best times
    under-report rather than flake, while a real regression still reads
    high because both sides see the same machine.  Each reading is
    printed (``pytest -s``).
    """
    reference()
    candidate()
    readings: List[float] = []
    for _ in range(ROUNDS):
        reference_best = candidate_best = math.inf
        for pair in range(pairs):
            if pair % 2:
                candidate_best = min(candidate_best, _cpu_seconds(candidate))
                reference_best = min(reference_best, _cpu_seconds(reference))
            else:
                reference_best = min(reference_best, _cpu_seconds(reference))
                candidate_best = min(candidate_best, _cpu_seconds(candidate))
        ratio = candidate_best / reference_best
        readings.append(ratio)
        print(f"candidate/reference {ratio:.4f} (budget {budget:.4f})")
        if ratio <= budget:
            return
    pytest.fail(
        "candidate/reference "
        + ", ".join(f"{ratio:.4f}" for ratio in readings)
        + f" over budget {budget:.4f} in every round"
    )


def _cpu_seconds(run: Callable[[], object]) -> float:
    """CPU time of one call of ``run``."""
    start = time.process_time()
    run()
    return time.process_time() - start


def _closed_loop(measure_requests: int, **kwargs) -> ClusterSimulator:
    return ClusterSimulator(
        platform("srvr1"),
        make_workload("websearch"),
        servers=3,
        clients_per_server=4,
        seed=3,
        warmup_requests=100,
        measure_requests=measure_requests,
        **kwargs,
    )


def test_zero_sampling_tracer_overhead():
    """A ``Tracer(sample_rate=0.0)`` costs one attribute load and one
    comparison per request, and changes nothing."""
    assert _closed_loop(1200).run() == _closed_loop(
        1200, tracer=Tracer(sample_rate=0.0)
    ).run()
    assert_within(
        OVERHEAD_LIMIT,
        lambda: _closed_loop(1200).run(),
        lambda: _closed_loop(1200, tracer=Tracer(sample_rate=0.0)).run(),
        pairs=7,
    )


def test_failslow_detection_overhead():
    """On a healthy fleet, detection costs histogram observes plus one
    windowed peer comparison per ``eval_interval_ms``, and ejects nobody."""
    detection = DetectionPolicy(adaptive_timeout=AdaptiveTimeoutPolicy())
    assert _closed_loop(2400).run().stream_digest() == _closed_loop(
        2400, failslow_detection=detection
    ).run().stream_digest()
    assert_within(
        OVERHEAD_LIMIT,
        lambda: _closed_loop(2400).run(),
        lambda: _closed_loop(2400, failslow_detection=detection).run(),
        pairs=8,
    )


def test_healthy_redundancy_overhead():
    """While no blade is down, a 2-replica group costs one list append
    per completion (the rebuild throttle's latency feed) and nothing per
    remote-memory request."""
    remote = make_remote_memory_model(
        "websearch", local_fraction=0.25, trace_length=50_000
    )
    redundancy = RedundancyConfig(
        policy=RedundancyPolicy.replicated(2), blades=3, pages_per_server=128
    )
    assert _closed_loop(2400, remote_memory=remote).run().stream_digest() == (
        _closed_loop(2400, remote_memory=remote, redundancy=redundancy)
        .run().stream_digest()
    )
    assert_within(
        OVERHEAD_LIMIT,
        lambda: _closed_loop(2400, remote_memory=remote).run(),
        lambda: _closed_loop(
            2400, remote_memory=remote, redundancy=redundancy
        ).run(),
        pairs=8,
    )


def test_scenario_compile_overhead():
    """Spec validation, plan expansion and simulator construction run
    once per run and stay in the noise next to the run itself."""

    def compiled():
        scenario = Scenario(
            name="budget-compile",
            seed=7,
            topology=TopologySpec(
                tiers=(TierSpec("web", platform="srvr1", servers=3),)),
            workload=WorkloadSpec(benchmark="websearch"),
            traffic=TrafficSpec(open_loop=OpenLoopSpec(
                base_rate_rps=300.0, warmup_ms=500.0, measure_ms=2500.0)),
        ).check()
        simulator, _, _ = _build_cluster_simulator(
            compile_scenario(scenario).plans[0]
        )
        return simulator.run()

    def direct():
        return ClusterSimulator(
            platform("srvr1"),
            make_workload("websearch"),
            servers=3,
            clients_per_server=1,
            seed=7,
            arrivals=SurgeSchedule(
                base_rate_rps=300.0, surge_multiplier=1.0,
                surge_start_ms=0.0, surge_end_ms=0.0,
            ),
            warmup_ms=500.0,
            measure_ms=2500.0,
        ).run()

    assert compiled().stream_digest() == direct().stream_digest()
    assert_within(OVERHEAD_LIMIT, direct, compiled, pairs=6)


def test_cohort_engine_speedup():
    """The open-loop surge path (the overload experiment's inner loop)
    on the cohort engine against the scalar reference engine."""

    def surge() -> ClusterSimulator:
        return ClusterSimulator(
            platform("srvr1"),
            make_workload("websearch"),
            servers=3,
            clients_per_server=1,
            seed=11,
            retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
            overload=OverloadPolicy(),
            arrivals=SurgeSchedule(
                base_rate_rps=120.0,
                surge_multiplier=4.0,
                surge_start_ms=2000.0,
                surge_end_ms=3000.0,
            ),
            warmup_ms=1000.0,
            measure_ms=4000.0,
        )

    assert surge().run().stream_digest() == run_scalar(surge()).stream_digest()
    assert_within(
        1.0 / COHORT_SPEEDUP_FLOOR,
        lambda: run_scalar(surge()),
        lambda: surge().run(),
        pairs=3,
    )


def _faulted_plans():
    """The two closed-loop shapes: EXT-8's faulted N2 run (6x6 clients,
    shared memory blade, flash-cached SAN disks, stress faults, hedging
    retry) and EXT-11's traced faulted srvr1 run (one-server
    enclosures)."""
    ext8 = compile_scenario(ext8_availability()).plans
    ext11 = compile_scenario(ext11_trace_attribution()).plans
    return {
        "ext8-N2-faulted": next(p for p in ext8 if p.run_id == "N2/faulted"),
        "ext11-srvr1-traced-faulted": next(
            p for p in ext11 if p.run_id == "srvr1/traced-faulted"
        ),
    }


@pytest.mark.parametrize("shape", sorted(CLOSED_LOOP_SPEEDUP_FLOORS))
def test_closed_loop_cohort_speedup(shape):
    """A faulted closed-loop run on the cohort engine against the scalar
    reference engine; the traced shape also compares the span logs."""
    plan = _faulted_plans()[shape]

    def scalar():
        sim, tracer, _ = _build_cluster_simulator(plan)
        return run_scalar(sim), tracer

    def cohort():
        sim, tracer, _ = _build_cluster_simulator(plan)
        return sim.run(), tracer

    (want, want_tracer), (got, got_tracer) = scalar(), cohort()
    assert got.stream_digest() == want.stream_digest()
    if want_tracer is not None:
        assert export.trace_digest([("run", got_tracer.traces)]) == (
            export.trace_digest([("run", want_tracer.traces)])
        )
    assert_within(
        1.0 / CLOSED_LOOP_SPEEDUP_FLOORS[shape], scalar, cohort, pairs=3
    )


def test_miss_ratio_curve_speedup():
    """A 16-point local-fraction sweep, from 50% of the footprint down to
    5%: one stack-distance pass against one scalar LRU replay per point."""
    spec = WORKLOAD_TRACES["websearch"]
    length = 100_000
    fractions = (
        0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.175,
        0.15, 0.125, 0.1, 0.09, 0.08, 0.07, 0.0625, 0.05,
    )

    def scalar():
        return [
            reference_twolevel.run_scalar(
                TwoLevelMemorySimulator(spec, fraction, policy="lru"), length
            )
            for fraction in fractions
        ]

    def kernel():
        curve = miss_ratio_curve(
            cached_trace(spec, length, seed=0),
            warmup=min(spec.footprint_pages, length // 2),
        )
        return [
            curve.counts(max(1, int(spec.footprint_pages * fraction)))
            for fraction in fractions
        ]

    assert [
        (stats.accesses, stats.misses, stats.writebacks) for stats in scalar()
    ] == [(counts.accesses, counts.misses, counts.writebacks) for counts in kernel()]
    assert_within(1.0 / MRC_SPEEDUP_FLOOR, scalar, kernel, pairs=3)


def test_trace_export_speedup(tmp_path):
    """``spans.jsonl`` and ``trace.json`` of EXT-11's three traced
    designs: one template per span against one dict per span handed to
    ``json.dumps``, and to ``json.dump`` for the Chrome file."""
    groups = [
        (record.run_id, record.tracer.traces)
        for record in run_scenario(
            ext11_trace_attribution(warmup=50, measure=300)
        ).runs
    ]

    def write_both(module, side):
        return [
            module.write_spans_jsonl(groups, str(tmp_path / f"{side}.jsonl")),
            module.write_chrome_trace(groups, str(tmp_path / f"{side}.json")),
        ]

    def reference():
        return write_both(reference_export, "reference")

    def candidate():
        return write_both(export, "candidate")

    for expected, written in zip(reference(), candidate()):
        with open(expected, "rb") as want, open(written, "rb") as got:
            assert got.read() == want.read()
    assert_within(1.0 / EXPORT_SPEEDUP_FLOOR, reference, candidate, pairs=4)
