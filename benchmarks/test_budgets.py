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
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.compiler import (
    _build_cluster_simulator,
    compile_scenario,
    run_scenario,
)
from repro.scenario.library import ext11_trace_attribution
from repro.workloads.suite import make_workload
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
    interleaved (reference, candidate) runs with ``time.process_time``
    and keeps the best pair's ratio: the pair least disturbed by
    scheduler jitter, frequency drift or a noisy neighbour.  On a loud
    machine that under-reports rather than flaking, while a real
    regression still reads high because both sides of every pair see
    the same machine.  Each reading is printed (``pytest -s``).
    """
    reference()
    candidate()
    readings: List[float] = []
    for _ in range(ROUNDS):
        best = math.inf
        for _ in range(pairs):
            start = time.process_time()
            reference()
            middle = time.process_time()
            candidate()
            best = min(best, (time.process_time() - middle) / (middle - start))
        readings.append(best)
        print(f"candidate/reference {best:.4f} (budget {budget:.4f})")
        if best <= budget:
            return
    pytest.fail(
        "candidate/reference "
        + ", ".join(f"{ratio:.4f}" for ratio in readings)
        + f" over budget {budget:.4f} in every round"
    )


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
    """While no blade is down, a 2-replica group costs one flag check per
    remote-memory request and one latency EWMA update per completion."""
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
        scenario = (
            ScenarioBuilder("budget-compile")
            .tier("web", platform="srvr1", servers=3)
            .benchmark("websearch")
            .open_loop(base_rate_rps=300.0, warmup_ms=500.0, measure_ms=2500.0)
            .seed(7)
            .build()
        )
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

    cohort = surge()
    assert cohort.run().stream_digest() == surge()._run_scalar().stream_digest()
    assert cohort.engine_used == "cohort", cohort.fallback_reason
    assert_within(
        1.0 / COHORT_SPEEDUP_FLOOR,
        lambda: surge()._run_scalar(),
        lambda: surge().run(),
        pairs=3,
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
            TwoLevelMemorySimulator(spec, fraction, policy="lru")._run_scalar(length)
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
