"""Tracked benchmark harness (``repro-bench`` -> ``BENCH_results.json``).

Times the layers the perf work targets and writes one JSON document so
the repository's performance trajectory is tracked across PRs:

- **engine** -- events/sec through :class:`repro.simulator.engine.Simulation`
  on two microbenchmarks: *ping* (pure schedule/dispatch) and *timer
  churn* (the balancer's pattern: every request schedules a completion
  plus a timeout that almost never fires, which the lazy-cancellation
  engine reclaims).  Reported, not gated: absolute rates are
  host-dependent.
- **alloc** -- bytes per hot request record (slotted classes vs the dict
  records they replaced), via ``tracemalloc``.
- **cluster** -- wall-clock of the open-loop surge path (the overload
  experiment's inner loop) at reduced scale, on the cohort engine and
  on the scalar reference engine: the headline is the in-run
  ``cluster_surge`` speedup of one over the other.
- **kernels** -- the single-pass miss-ratio-curve kernels
  (:mod:`repro.perf.kernels`) against their scalar oracles: *mrc_sweep*
  (one stack-distance pass answering a 16-point miss-ratio curve vs 16
  scalar LRU replays) and *flash_replay* (one flash hit curve answering
  a 12-device flash-sizing curve vs 12 ``FlashCache`` replays).  Both
  assert bit-identical counters before timing is reported.
- **e2e** (``--e2e``) -- cold vs warm-cache wall-clock of the full
  experiment sweep through :func:`repro.perf.parallel.run_experiments`.

``--check BASELINE`` compares the headline cohort-vs-scalar speedup and
its digest match -- and, when the baseline carries them, the kernel
speedups, the overhead budgets, and the suite wall clock -- against a
committed baseline.  Every speedup gate is a *ratio over an in-run
scalar reference* -- machine-independent -- rather than an absolute
rate, so CI hosts of different speeds share one baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import platform as platform_mod
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Optional

from repro.simulator.engine import Simulation

#: Fail ``--check`` when a trace-kernel speedup drops below
#: ``baseline * (1 - REGRESSION_TOLERANCE)``.
REGRESSION_TOLERANCE = 0.30

#: Fail ``--check`` when a tracer with ``sample_rate=0.0`` slows the
#: cluster hot path by more than this ratio over no tracer at all (the
#: ``repro.obs`` zero-sampling budget: one attribute load and one
#: comparison per request).
TRACE_OVERHEAD_LIMIT = 1.05

#: Fail ``--check`` when running the peer-comparison fail-slow detector
#: on a healthy fleet costs more than this ratio of the same run without
#: detection (the ``repro.faults.failslow`` budget: histogram observes
#: plus one windowed evaluation per ``eval_interval_ms``).
FAILSLOW_OVERHEAD_LIMIT = 1.05

#: Fail ``--check`` when carrying a healthy redundant blade group costs
#: more than this ratio of the same run without redundancy (the
#: ``repro.faults.recovery`` budget: one ``recovery.active`` flag check
#: per remote-memory request plus one latency EWMA update per
#: completion; placement/rebuild bookkeeping only runs during faults).
REBUILD_OVERHEAD_LIMIT = 1.05

#: Fail ``--check`` when running a scenario-compiled cluster run costs
#: more than this ratio of the identical directly-constructed run (the
#: ``repro.scenario`` budget: spec validation, plan expansion, and
#: simulator construction are one-time per run and must stay in the
#: noise next to the run itself).
SCENARIO_COMPILE_OVERHEAD_LIMIT = 1.05

#: The scalar engine's committed quick-mode ``cluster_surge`` rate
#: (simulated-ms per wall-second, single cold run on the baseline host)
#: from before the cohort engine landed -- the denominator of the
#: cluster acceptance target.
CLUSTER_SURGE_BASELINE = 72_888.7

#: The quick-mode ``cluster_surge`` acceptance floor: 5x the pre-cohort
#: scalar baseline.  The absolute rate is host-dependent (shared CI
#: runners drift +/-15%), so the check accepts a run that clears this
#: floor outright OR demonstrates the same criterion machine-
#: independently via the in-run scalar oracle.  That oracle samples
#: its demands through ``Workload.sample``, which builds one
#: ``Request`` per draw instead of the two it built when this escape
#: was set at 5x, so it runs 1.14x faster than it did then (median
#: scalar run 0.0485 -> 0.0425 s over 20 alternating quick runs on a
#: 2-vCPU VM, cohort unchanged at 0.0085 s): the same criterion reads
#: 5 / 1.14 = 4.4x against today's oracle.
CLUSTER_SURGE_FLOOR = 5 * CLUSTER_SURGE_BASELINE
CLUSTER_SURGE_SPEEDUP = 4.4

#: Fail ``--check`` when the headline -- the cohort serving-tier
#: engine's speedup over its in-run scalar oracle (machine-independent;
#: the committed baseline runs ~5.0x) -- drops below this.  This is the
#: hard regression backstop below the acceptance criterion above: 4x
#: over the scalar oracle as it was when this floor was set, i.e.
#: 4 / 1.14 = 3.5x today's (see CLUSTER_SURGE_SPEEDUP), which is also
#: 0.7x the committed baseline's ratio.
CLUSTER_SPEEDUP_FLOOR = 3.5

#: Fail ``--check`` when the per-experiment suite wall clock exceeds
#: the baseline's by more than this fraction.  Wall time across hosts
#: is noisy -- CI runners are routinely 2x slower than the machine the
#: baseline was committed from, and a loaded host doubles it again --
#: so the tolerance is deliberately loose: the gate exists to catch an
#: experiment becoming grossly (3x) slower, not to police machine
#: variance.
SUITE_WALL_TOLERANCE = 2.0

#: The headline metric's path into the results document.
HEADLINE = ("cluster_surge", "speedup_vs_scalar")

DEFAULT_OUTPUT = "BENCH_results.json"


def _bench_ping(events: int) -> float:
    """Events/sec for a self-rescheduling chain (pure dispatch cost)."""
    sim = Simulation()
    remaining = [events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return events / elapsed


def _bench_timer_churn(requests: int) -> float:
    """Events/sec for the balancer's request pattern.

    Each request: one arrival, one completion at +1 ms, one timeout
    timer at +1000 ms that is cancelled on completion -- the dead
    timeouts are what lazy cancellation reclaims.  Throughput counts
    the three *logical* events per request.
    """
    sim = Simulation()
    state = [0]

    def arrive() -> None:
        state[0] += 1
        timer = [0]

        def timeout() -> None:  # pragma: no cover - (almost) never fires
            pass

        def complete() -> None:
            sim.cancel(timer[0])

        timer[0] = sim.schedule_timer(1000.0, timeout)
        sim.schedule(1.0, complete)
        if state[0] < requests:
            sim.schedule(0.1, arrive)

    sim.schedule(0.0, arrive)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return (3 * requests) / elapsed


def _best_of(fn: Callable[[], float], repeats: int) -> float:
    return max(fn() for _ in range(max(1, repeats)))


def _engine_section(quick: bool) -> Dict[str, Dict[str, float]]:
    # Best-of-3 even in quick mode: a single ~30ms timing is
    # noise-dominated, and the extra repeats cost well under a second
    # at quick-mode scales.
    repeats = 3
    ping_n = 20_000 if quick else 200_000
    churn_n = 8_000 if quick else 60_000
    return {
        name: {"events_per_sec": round(_best_of(lambda: bench(scale), repeats), 1)}
        for name, bench, scale in (
            ("engine_ping", _bench_ping, ping_n),
            ("engine_churn", _bench_timer_churn, churn_n),
        )
    }


def _alloc_section() -> Dict[str, Dict[str, float]]:
    """Bytes per request record: slotted classes vs the dicts they replaced."""
    from repro.cluster.balancer import _Attempt, _RequestState

    count = 10_000

    def measure(make: Callable[[int], object]) -> float:
        tracemalloc.start()
        keep = [make(i) for i in range(count)]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del keep
        return peak / count

    slotted_rs = measure(lambda i: _RequestState(None, float(i)))
    dict_rs = measure(
        lambda i: {
            "demand": None, "start": float(i), "attempts": 0,
            "finished": False, "hedged": False,
        }
    )
    slotted_attempt = measure(lambda i: _Attempt(None, i, False))
    dict_attempt = measure(
        lambda i: {
            "server": None, "epoch": i, "void": False, "done": False,
            "probe": False,
        }
    )
    return {
        "alloc_request_state": {
            "slotted_bytes_per_obj": round(slotted_rs, 1),
            "dict_bytes_per_obj": round(dict_rs, 1),
            "savings_ratio": round(dict_rs / slotted_rs, 3),
        },
        "alloc_attempt": {
            "slotted_bytes_per_obj": round(slotted_attempt, 1),
            "dict_bytes_per_obj": round(dict_attempt, 1),
            "savings_ratio": round(dict_attempt / slotted_attempt, 3),
        },
    }


def _cluster_config(quick: bool) -> dict:
    """The canonical ``cluster_surge`` configuration (shared with the
    ``--profile`` entry point so the profile matches the gated bench)."""
    from repro.cluster.balancer import RetryPolicy
    from repro.cluster.overload import OverloadPolicy, SurgeSchedule

    measure_ms = 4000.0 if quick else 12_000.0
    return dict(
        servers=3,
        clients_per_server=1,
        seed=11,
        retry=RetryPolicy(timeout_ms=400.0, max_retries=1),
        overload=OverloadPolicy(),
        arrivals=SurgeSchedule(
            base_rate_rps=120.0,
            surge_multiplier=4.0,
            surge_start_ms=1000.0 + measure_ms * 0.25,
            surge_end_ms=1000.0 + measure_ms * 0.5,
        ),
        warmup_ms=1000.0,
        measure_ms=measure_ms,
    )


def _cluster_section(quick: bool) -> Dict[str, Dict[str, float]]:
    """Cohort vs scalar wall-clock of the open-loop surge path.

    The cohort side is :meth:`ClusterSimulator.run`, which selects the
    cohort engine for this configuration; the scalar reference calls
    ``_run_scalar()`` directly.  Construction (platform catalog, workload sampler tables, simulator
    wiring) happens outside the timed region; each engine is timed
    best-of-3 over fresh simulators (a ClusterSimulator run is
    single-shot) after one untimed warm-up run, and the two engines'
    stream digests are compared in-run, so ``speedup_vs_scalar`` is a
    same-machine, same-moment ratio over bitwise-identical work.
    ``sim_ms_per_wall_s`` keeps the measured-window numerator the
    pre-cohort baseline used, so the committed 72,888.7 quick-mode
    figure remains directly comparable.
    """
    from repro.cluster.balancer import ClusterSimulator
    from repro.platforms.catalog import platform as platform_by_name
    from repro.workloads.websearch import make_websearch

    config = _cluster_config(quick)
    measure_ms = config["measure_ms"]
    platform = platform_by_name("srvr1")
    workload = make_websearch()

    def timed(run: Callable[[ClusterSimulator], object]):
        run(ClusterSimulator(platform, workload, **config))  # warm-up, untimed
        best = math.inf
        result = None
        for _ in range(3):
            # Setup excluded from the timed region.
            simulator = ClusterSimulator(platform, workload, **config)
            start = time.perf_counter()
            result = run(simulator)
            best = min(best, time.perf_counter() - start)
        return best, result

    cohort_s, cohort_result = timed(ClusterSimulator.run)
    scalar_s, scalar_result = timed(ClusterSimulator._run_scalar)
    return {
        "cluster_surge": {
            "wall_s": round(cohort_s, 4),
            "simulated_ms": measure_ms,
            "sim_ms_per_wall_s": round(measure_ms / cohort_s, 1),
            "scalar_wall_s": round(scalar_s, 4),
            "speedup_vs_scalar": round(scalar_s / cohort_s, 3),
            "digest_match": float(
                cohort_result.stream_digest() == scalar_result.stream_digest()
            ),
            "offered_rps": round(cohort_result.offered_rps, 1),
            "goodput_rps": round(cohort_result.goodput_rps, 1),
        }
    }


def _suite_wall_section(jobs: int) -> Dict[str, Dict[str, float]]:
    """Wall-clock of the user-facing ``repro-experiments --all --jobs N``.

    Times the real CLI entry point end to end (argument parsing, cold
    result cache, experiment fan-out, report rendering) into a throwaway
    cache directory, so the row tracks what a user regenerating every
    table and figure actually waits for.
    """
    import contextlib
    import io
    import os
    import tempfile

    from repro.experiments import runner

    with tempfile.TemporaryDirectory(prefix="repro-bench-suite") as tmp:
        argv = [
            "--all",
            "--jobs", str(jobs),
            "--cache-dir", os.path.join(tmp, "cache"),
            "--output", os.path.join(tmp, "results.txt"),
        ]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = runner.main(argv)
        wall = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"repro-experiments --all failed (exit {status})")
    count = len(runner._EXPERIMENTS)
    return {
        "suite_wall": {
            "experiments": count,
            "jobs": jobs,
            "wall_s": round(wall, 2),
            "wall_s_per_experiment": round(wall / count, 3),
        }
    }


def _trace_overhead_section(quick: bool) -> Dict[str, Dict[str, float]]:
    """Cost of a zero-sampling tracer on the cluster hot path.

    Interleaves untraced runs with ``Tracer(sample_rate=0.0)`` runs and
    reports their CPU-time ratio.  The runs are asserted bit-identical
    first -- tracing must not consume RNG state or add events -- so the
    ratio measures pure overhead, not different work.

    The true cost is a couple of branches per request (~1%), far below
    the noise of a single short run on a busy host, so the estimator is
    deliberately noise-robust: ``process_time`` (immune to scheduler
    preemption), a warm-up run of each mode, and the smaller of the
    median paired ratio and the ratio of per-side minima.  Either
    estimate alone still reads well above the 5% gate when the guarded
    hot path actually regresses (the guards are per-callback, so a real
    slip multiplies across every stage of every request).
    """
    import statistics

    from repro.cluster.balancer import ClusterSimulator
    from repro.obs.tracer import Tracer
    from repro.platforms.catalog import platform as platform_by_name
    from repro.workloads.websearch import make_websearch

    measure = 1200 if quick else 1800
    reps = 7 if quick else 9
    platform = platform_by_name("srvr1")
    workload = make_websearch()

    def run_once(tracer):
        simulator = ClusterSimulator(
            platform,
            workload,
            servers=3,
            clients_per_server=4,
            seed=3,
            warmup_requests=100,
            measure_requests=measure,
            tracer=tracer,
        )
        start = time.process_time()
        result = simulator.run()
        return time.process_time() - start, result

    _, result_off = run_once(None)
    _, result_zero = run_once(Tracer(sample_rate=0.0))
    assert result_off == result_zero, (
        "a zero-sampling tracer changed the simulation results"
    )

    def one_round():
        off_times = []
        zero_times = []
        for _ in range(max(1, reps)):
            elapsed, _ = run_once(None)
            off_times.append(elapsed)
            elapsed, _ = run_once(Tracer(sample_rate=0.0))
            zero_times.append(elapsed)
        pair_ratio = statistics.median(
            zero / off for off, zero in zip(off_times, zero_times)
        )
        min_ratio = min(zero_times) / min(off_times)
        return min(off_times), min(zero_times), min(pair_ratio, min_ratio)

    # Confirm-retry: a noisy round can read a few percent high, so only
    # a ratio that stays high across rounds is reported high.  A real
    # regression reads high in every round; noise does not.
    best_off, best_zero, ratio = one_round()
    for _ in range(2):
        if ratio <= 1.0 + (TRACE_OVERHEAD_LIMIT - 1.0) * 0.6:
            break
        round_off, round_zero, round_ratio = one_round()
        best_off = min(best_off, round_off)
        best_zero = min(best_zero, round_zero)
        ratio = min(ratio, round_ratio)
    return {
        "trace_overhead": {
            "measure_requests": measure,
            "untraced_cpu_s": round(best_off, 4),
            "tracing_off_cpu_s": round(best_zero, 4),
            "overhead_ratio": round(ratio, 4),
        }
    }


def _failslow_section(quick: bool) -> Dict[str, Dict[str, float]]:
    """Cost of the fail-slow detector on a healthy cluster hot path.

    Interleaves detection-off runs with detection-on runs of the *same
    healthy fleet* and reports their CPU-time ratio.  On a healthy fleet
    detection consumes no RNG state and ejects nobody, so the two runs
    are first asserted bit-identical (via ``stream_digest``, which
    excludes the detector's own bookkeeping) -- the ratio then measures
    pure detector overhead: per-attempt histogram observes plus one
    windowed peer-comparison evaluation per ``eval_interval_ms``.

    The detector's true overhead (~4-5%) sits close to its budget, so
    the estimator must reject ambient noise harder than the median-pair
    statistic the trace gate uses: the reported ratio is the *minimum*
    over many interleaved off/on pair ratios -- the pair least
    contaminated by scheduler jitter, CPU-frequency drift, or noisy
    neighbours.  On a quiet machine it converges to the true ratio from
    above; on a loud one it under-reports rather than flaking the gate.
    That one-sided bias is the right trade for an absolute budget whose
    job is catching cost *creep*: a genuinely fatter detector (e.g. a
    20x evaluation cadence) still reads well above the limit because
    both sides of every pair see the same machine.
    """
    from repro.cluster.balancer import ClusterSimulator
    from repro.faults.failslow import AdaptiveTimeoutPolicy, DetectionPolicy
    from repro.platforms.catalog import platform as platform_by_name
    from repro.workloads.websearch import make_websearch

    # Many moderate runs beat a few long ones for a min-of-pairs
    # statistic: each extra pair is another draw at an uncontaminated
    # interval, while each run is still long enough (~0.1s CPU) that
    # timer resolution is irrelevant.
    measure = 2400 if quick else 3600
    reps = 8 if quick else 10
    platform = platform_by_name("srvr1")
    workload = make_websearch()

    def run_once(detection):
        simulator = ClusterSimulator(
            platform,
            workload,
            servers=3,
            clients_per_server=4,
            seed=3,
            warmup_requests=100,
            measure_requests=measure,
            failslow_detection=detection,
        )
        start = time.process_time()
        result = simulator.run()
        return time.process_time() - start, result

    detection = DetectionPolicy(adaptive_timeout=AdaptiveTimeoutPolicy())
    _, result_off = run_once(None)
    _, result_on = run_once(detection)
    assert result_off.stream_digest() == result_on.stream_digest(), (
        "fail-slow detection changed a healthy fleet's request stream"
    )

    def one_round():
        round_off = round_on = round_ratio = float("inf")
        for _ in range(max(1, reps)):
            off, _ = run_once(None)
            on, _ = run_once(detection)
            round_off = min(round_off, off)
            round_on = min(round_on, on)
            round_ratio = min(round_ratio, on / off)
        return round_off, round_on, round_ratio

    best_off, best_on, ratio = one_round()
    for _ in range(2):
        if ratio <= 1.0 + (FAILSLOW_OVERHEAD_LIMIT - 1.0) * 0.6:
            break
        round_off, round_on, round_ratio = one_round()
        best_off = min(best_off, round_off)
        best_on = min(best_on, round_on)
        ratio = min(ratio, round_ratio)
    return {
        "failslow_detect": {
            "measure_requests": measure,
            "undetected_cpu_s": round(best_off, 4),
            "detection_on_cpu_s": round(best_on, 4),
            "overhead_ratio": round(ratio, 4),
        }
    }


def _rebuild_section(quick: bool) -> Dict[str, Dict[str, float]]:
    """Cost of carrying a healthy redundant blade group on the hot path.

    Interleaves redundancy-off runs with 2-replica runs of the *same
    healthy fleet* (no blade faults, so the recovery orchestrator's
    ``active`` flag stays False throughout) and reports their CPU-time
    ratio.  The two runs are first asserted bit-identical via
    ``stream_digest`` -- redundancy consumes no RNG and, while clean,
    the balancer takes the exact unprotected service-time branch -- so
    the ratio measures pure carrying cost: the per-request flag check,
    the per-completion latency EWMA feeding the rebuild throttle's
    backpressure gate, and the one-time group placement/populate.

    Same min-of-pairs estimator as :func:`_failslow_section`, for the
    same reason: an absolute 1.05x budget must reject ambient machine
    noise harder than a relative gate, and taking the minimum ratio
    over interleaved pairs under-reports on a loud machine instead of
    flaking.
    """
    from repro.cluster.balancer import ClusterSimulator
    from repro.faults.recovery import RedundancyConfig
    from repro.memsim.redundancy import RedundancyPolicy
    from repro.memsim.remote_memory import make_remote_memory_model
    from repro.platforms.catalog import platform as platform_by_name
    from repro.workloads.websearch import make_websearch

    measure = 2400 if quick else 3600
    reps = 8 if quick else 10
    platform = platform_by_name("srvr1")
    workload = make_websearch()
    remote = make_remote_memory_model(
        "websearch", local_fraction=0.25, trace_length=50_000
    )
    redundancy = RedundancyConfig(
        policy=RedundancyPolicy.replicated(2), blades=3,
        pages_per_server=128,
    )

    def run_once(config):
        simulator = ClusterSimulator(
            platform,
            workload,
            servers=3,
            clients_per_server=4,
            seed=3,
            warmup_requests=100,
            measure_requests=measure,
            remote_memory=remote,
            redundancy=config,
        )
        start = time.process_time()
        result = simulator.run()
        return time.process_time() - start, result

    _, result_off = run_once(None)
    _, result_on = run_once(redundancy)
    assert result_off.stream_digest() == result_on.stream_digest(), (
        "healthy redundancy changed the request stream"
    )

    def one_round():
        round_off = round_on = round_ratio = float("inf")
        for _ in range(max(1, reps)):
            off, _ = run_once(None)
            on, _ = run_once(redundancy)
            round_off = min(round_off, off)
            round_on = min(round_on, on)
            round_ratio = min(round_ratio, on / off)
        return round_off, round_on, round_ratio

    best_off, best_on, ratio = one_round()
    for _ in range(2):
        if ratio <= 1.0 + (REBUILD_OVERHEAD_LIMIT - 1.0) * 0.6:
            break
        round_off, round_on, round_ratio = one_round()
        best_off = min(best_off, round_off)
        best_on = min(best_on, round_on)
        ratio = min(ratio, round_ratio)
    return {
        "rebuild_overhead": {
            "measure_requests": measure,
            "unprotected_cpu_s": round(best_off, 4),
            "redundancy_on_cpu_s": round(best_on, 4),
            "overhead_ratio": round(ratio, 4),
        }
    }


def _scenario_section(quick: bool) -> Dict[str, Dict[str, float]]:
    """Compile+dispatch cost of the declarative scenario layer.

    Interleaves runs that go spec -> ``compile_scenario`` -> simulator
    with runs that construct the identical :class:`ClusterSimulator`
    directly, and reports their CPU-time ratio.  The two paths are
    first asserted bit-identical (``stream_digest``) -- the compiler's
    contract is that a scenario is pure notation -- so the ratio
    measures what the notation costs: builder assembly, aggregated
    validation, capacity resolution, plan expansion, and kwargs
    construction, all once per run.  Same min-of-pairs estimator as
    :func:`_failslow_section`, for the same absolute-budget reason.
    """
    from repro.cluster.balancer import ClusterSimulator
    from repro.cluster.overload import SurgeSchedule
    from repro.platforms.catalog import platform as platform_by_name
    from repro.scenario.builder import ScenarioBuilder
    from repro.scenario.compiler import (
        _build_cluster_simulator,
        compile_scenario,
    )
    from repro.workloads.websearch import make_websearch

    measure_ms = 2500.0 if quick else 8000.0
    reps = 6 if quick else 8
    rate = 300.0

    def build_scenario():
        return (
            ScenarioBuilder("bench-compile")
            .tier("web", platform="srvr1", servers=3)
            .benchmark("websearch")
            .open_loop(base_rate_rps=rate, warmup_ms=500.0,
                       measure_ms=measure_ms)
            .seed(7)
            .build()
        )

    def run_compiled():
        start = time.process_time()
        plan = compile_scenario(build_scenario()).plans[0]
        simulator, _, _ = _build_cluster_simulator(plan)
        result = simulator.run()
        return time.process_time() - start, result

    # Both arms share one prebuilt workload, exactly like the hand-wired
    # experiment modules (and ``make_workload``'s per-process memo) --
    # the ratio then measures notation cost, not sampler construction.
    workload = make_websearch()

    def run_direct():
        start = time.process_time()
        simulator = ClusterSimulator(
            platform=platform_by_name("srvr1"),
            workload=workload,
            servers=3,
            clients_per_server=1,
            seed=7,
            disk_model_factory=None,
            remote_memory=None,
            arrivals=SurgeSchedule(
                base_rate_rps=rate, surge_multiplier=1.0,
                surge_start_ms=0.0, surge_end_ms=0.0),
            warmup_ms=500.0,
            measure_ms=measure_ms,
        )
        result = simulator.run()
        return time.process_time() - start, result

    _, result_direct = run_direct()
    compiled = compile_scenario(build_scenario())
    simulator, _, _ = _build_cluster_simulator(compiled.plans[0])
    assert simulator.run().stream_digest() == \
        result_direct.stream_digest(), (
            "the scenario compiler no longer reproduces direct "
            "construction bitwise"
        )
    # Warm-cache compile cost (the first compile above paid one-off
    # workload construction, which both paths amortize identically).
    compile_start = time.process_time()
    compile_scenario(build_scenario())
    compile_s = time.process_time() - compile_start

    def one_round():
        round_direct = round_compiled = round_ratio = float("inf")
        for _ in range(max(1, reps)):
            direct_s, _ = run_direct()
            compiled_s, _ = run_compiled()
            round_direct = min(round_direct, direct_s)
            round_compiled = min(round_compiled, compiled_s)
            round_ratio = min(round_ratio, compiled_s / direct_s)
        return round_direct, round_compiled, round_ratio

    best_direct, best_compiled, ratio = one_round()
    for _ in range(2):
        if ratio <= 1.0 + (SCENARIO_COMPILE_OVERHEAD_LIMIT - 1.0) * 0.6:
            break
        round_direct, round_compiled, round_ratio = one_round()
        best_direct = min(best_direct, round_direct)
        best_compiled = min(best_compiled, round_compiled)
        ratio = min(ratio, round_ratio)
    return {
        "scenario_compile": {
            "simulated_ms": measure_ms,
            "compile_only_ms": round(compile_s * 1000.0, 2),
            "direct_cpu_s": round(best_direct, 4),
            "compiled_cpu_s": round(best_compiled, 4),
            "overhead_ratio": round(ratio, 4),
        }
    }


def _kernels_section(quick: bool) -> Dict[str, Dict[str, float]]:
    """The single-pass trace kernels vs their scalar oracles.

    Both benchmarks assert bit-identical counters between the paths
    before reporting, so a correctness break shows up as a bench failure
    rather than a suspicious speedup.
    """
    import dataclasses

    import numpy as np

    from repro.flashcache.cache import FlashCache
    from repro.flashcache.models import FLASH_OBJECT_PARAMS
    from repro.memsim.trace import WORKLOAD_TRACES, cached_trace
    from repro.memsim.twolevel import TwoLevelMemorySimulator
    from repro.perf.kernels import flash_hit_curve, miss_ratio_curve
    from repro.platforms.storage import FLASH_1GB
    from repro.workloads.zipf import ZipfSampler

    # --- mrc_sweep: one stack-distance pass vs per-fraction LRU replay.
    spec = WORKLOAD_TRACES["websearch"]
    length = 100_000 if quick else 240_000
    # A full miss-ratio-curve sweep: 16 capacity points from 50% local
    # memory down to 5%.  The curve answers them all from one pass; the
    # scalar oracle replays the trace once per point.
    fractions = (
        0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.175,
        0.15, 0.125, 0.1, 0.09, 0.08, 0.07, 0.0625, 0.05,
    )
    cached_trace(spec, length, seed=0)  # trace generation off both timings

    def _best_of(reps, fn):
        # The kernel passes finish in fractions of a second, where a
        # single sample is dominated by scheduler/allocator noise; the
        # minimum over a few repeats is the stable estimator.
        best, value = math.inf, None
        for _ in range(reps):
            start = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - start)
        return best, value

    def _scalar_sweep():
        return [
            TwoLevelMemorySimulator(spec, fraction, policy="lru").run(
                length, engine="scalar"
            )
            for fraction in fractions
        ]

    def _kernel_sweep():
        trace = cached_trace(spec, length, seed=0)
        curve = miss_ratio_curve(
            trace, warmup=min(spec.footprint_pages, length // 2)
        )
        return [
            curve.counts(max(1, int(spec.footprint_pages * fraction)))
            for fraction in fractions
        ]

    scalar_s, scalar_stats = _best_of(2, _scalar_sweep)
    kernel_s, kernel_counts = _best_of(3, _kernel_sweep)

    for stats, counts in zip(scalar_stats, kernel_counts):
        assert (stats.misses, stats.writebacks, stats.accesses) == (
            counts.misses, counts.writebacks, counts.accesses,
        ), "mrc kernel diverged from the scalar oracle"

    # --- flash_replay: one hit curve vs per-capacity FlashCache replay.
    params = FLASH_OBJECT_PARAMS["websearch"]
    objects = max(1, int(params.dataset_gb * (1 << 30) / params.object_bytes))
    stream_n = 60_000 if quick else 150_000
    stream = ZipfSampler(objects, params.zipf_alpha).sample_many(
        stream_n, np.random.default_rng(0)
    )
    # A flash-sizing curve (section 3.5's provisioning question): how
    # does the hit rate grow with device capacity?
    devices = [
        dataclasses.replace(FLASH_1GB, name=f"flash-{gb}gb", capacity_gb=gb)
        for gb in (0.125, 0.25, 0.375, 0.5, 0.75, 1.0,
                   1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
    ]

    def _flash_scalar_sweep():
        return [
            FlashCache(device, params.object_bytes).replay(stream)
            for device in devices
        ]

    def _flash_kernel_sweep():
        hit_curve = flash_hit_curve(stream)
        return [
            hit_curve.counts(
                max(1, int(device.capacity_gb * (1 << 30) / params.object_bytes))
            )
            for device in devices
        ]

    flash_scalar_s, flash_scalar = _best_of(2, _flash_scalar_sweep)
    flash_kernel_s, flash_kernel = _best_of(3, _flash_kernel_sweep)

    for stats, counts in zip(flash_scalar, flash_kernel):
        assert (
            stats.lookups, stats.hits, stats.insertions,
            stats.evictions, stats.block_writes,
        ) == (
            counts.lookups, counts.hits, counts.insertions,
            counts.evictions, counts.block_writes,
        ), "flash kernel diverged from the scalar FlashCache"

    return {
        "mrc_sweep": {
            "trace_length": length,
            "fractions": len(fractions),
            "scalar_s": round(scalar_s, 3),
            "kernel_s": round(kernel_s, 3),
            "speedup_vs_scalar": round(scalar_s / kernel_s, 3),
        },
        "flash_replay": {
            "stream_length": stream_n,
            "capacities": len(devices),
            "scalar_s": round(flash_scalar_s, 3),
            "kernel_s": round(flash_kernel_s, 3),
            "speedup_vs_scalar": round(flash_scalar_s / flash_kernel_s, 3),
        },
    }


def _e2e_section(jobs: int) -> Dict[str, Dict[str, float]]:
    """Cold vs warm-cache wall-clock of the full experiment sweep."""
    import tempfile

    from repro.experiments.runner import _EXPERIMENTS
    from repro.perf.cache import ResultCache
    from repro.perf.parallel import run_experiments

    names = list(_EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache") as tmp:
        cache = ResultCache(tmp)
        start = time.perf_counter()
        run_experiments(names, jobs=jobs, cache=cache)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        run_experiments(names, jobs=jobs, cache=cache)
        warm = time.perf_counter() - start
    return {
        "e2e_all": {
            "experiments": len(names),
            "jobs": jobs,
            "cold_s": round(cold, 2),
            "warm_cache_s": round(warm, 2),
            "warm_fraction": round(warm / cold, 4),
        }
    }


def run_benchmarks(
    quick: bool = True,
    e2e: bool = False,
    jobs: int = 1,
    suite: bool = False,
) -> dict:
    """Run the harness and return the results document."""
    results: Dict[str, Dict[str, float]] = {}
    results.update(_engine_section(quick))
    results.update(_alloc_section())
    results.update(_cluster_section(quick))
    results.update(_trace_overhead_section(quick))
    results.update(_failslow_section(quick))
    results.update(_rebuild_section(quick))
    results.update(_scenario_section(quick))
    results.update(_kernels_section(quick))
    if suite:
        results.update(_suite_wall_section(jobs))
    if e2e:
        results.update(_e2e_section(jobs))
    return {
        "schema": 1,
        "quick": quick,
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
        "headline": {
            "metric": "/".join(HEADLINE),
            HEADLINE[1]: results[HEADLINE[0]][HEADLINE[1]],
        },
        "results": results,
    }


def check_regression(current: dict, baseline: dict) -> List[str]:
    """Regression messages comparing ``current`` against ``baseline``.

    Gates on in-run ratios (machine-independent); absolute rates are
    reported but not gated, since CI hosts vary in raw speed.
    """
    failures = []
    # The trace-kernel speedups are in-run ratios against the scalar
    # oracles, so they gate the same machine-independent way.  Only
    # gated once the baseline has entries (older baselines pass).
    for key in ("mrc_sweep", "flash_replay"):
        base = baseline.get("results", {}).get(key, {}).get("speedup_vs_scalar")
        if base is None:
            continue
        now = current["results"][key]["speedup_vs_scalar"]
        kernel_floor = base * (1.0 - REGRESSION_TOLERANCE)
        if now < kernel_floor:
            failures.append(
                f"{key} kernel speedup regressed: {now:.2f}x vs "
                f"baseline {base:.2f}x (floor {kernel_floor:.2f}x)"
            )
    # The zero-sampling tracer's budget is absolute (a ratio against the
    # in-run untraced reference, so machine-independent): once the
    # baseline carries the entry, a disabled tracer may not cost more
    # than TRACE_OVERHEAD_LIMIT of the untraced hot path.
    if baseline.get("results", {}).get("trace_overhead") is not None:
        ratio = current["results"]["trace_overhead"]["overhead_ratio"]
        if ratio > TRACE_OVERHEAD_LIMIT:
            failures.append(
                f"zero-sampling trace overhead too high: {ratio:.3f}x vs "
                f"limit {TRACE_OVERHEAD_LIMIT:.2f}x of the untraced path"
            )
    # The fail-slow detector's budget gates the same way: on a healthy
    # fleet, detection may not cost more than FAILSLOW_OVERHEAD_LIMIT of
    # the same run without it.
    if baseline.get("results", {}).get("failslow_detect") is not None:
        ratio = current["results"]["failslow_detect"]["overhead_ratio"]
        if ratio > FAILSLOW_OVERHEAD_LIMIT:
            failures.append(
                f"fail-slow detection overhead too high: {ratio:.3f}x vs "
                f"limit {FAILSLOW_OVERHEAD_LIMIT:.2f}x of the undetected path"
            )
    # Carrying a healthy redundant blade group gates identically: while
    # no blade is down the recovery layer may not cost more than
    # REBUILD_OVERHEAD_LIMIT of the unprotected run.
    if baseline.get("results", {}).get("rebuild_overhead") is not None:
        ratio = current["results"]["rebuild_overhead"]["overhead_ratio"]
        if ratio > REBUILD_OVERHEAD_LIMIT:
            failures.append(
                f"healthy-redundancy overhead too high: {ratio:.3f}x vs "
                f"limit {REBUILD_OVERHEAD_LIMIT:.2f}x of the unprotected path"
            )
    # The scenario compiler's budget gates identically: a compiled run
    # may not cost more than SCENARIO_COMPILE_OVERHEAD_LIMIT of the
    # identical directly-constructed run.
    if baseline.get("results", {}).get("scenario_compile") is not None:
        ratio = current["results"]["scenario_compile"]["overhead_ratio"]
        if ratio > SCENARIO_COMPILE_OVERHEAD_LIMIT:
            failures.append(
                f"scenario compile+dispatch overhead too high: {ratio:.3f}x "
                f"vs limit {SCENARIO_COMPILE_OVERHEAD_LIMIT:.2f}x of direct "
                "construction"
            )
    # The headline cohort serving-tier engine gates three ways: the
    # scalar-vs-cohort digests must match bitwise, the in-run speedup
    # (machine-independent) must stay above CLUSTER_SPEEDUP_FLOOR, and
    # in quick mode the absolute rate must clear the 5x acceptance
    # floor over the pre-cohort scalar baseline.
    section = current["results"]["cluster_surge"]
    if not section["digest_match"]:
        failures.append(
            "cluster_surge digest mismatch: the cohort engine no "
            "longer reproduces the scalar engine bitwise"
        )
    if section["speedup_vs_scalar"] < CLUSTER_SPEEDUP_FLOOR:
        failures.append(
            f"cohort cluster speedup too low: "
            f"{section['speedup_vs_scalar']:.2f}x vs floor "
            f"{CLUSTER_SPEEDUP_FLOOR:.1f}x over the in-run scalar engine"
        )
    if (
        current.get("quick")
        and section["sim_ms_per_wall_s"] < CLUSTER_SURGE_FLOOR
        and section["speedup_vs_scalar"] < CLUSTER_SURGE_SPEEDUP
    ):
        failures.append(
            f"cluster_surge below the acceptance criterion: "
            f"{section['sim_ms_per_wall_s']:,.1f} sim-ms/wall-s vs "
            f"floor {CLUSTER_SURGE_FLOOR:,.1f} "
            f"(5 x pre-cohort {CLUSTER_SURGE_BASELINE:,.1f}) and "
            f"in-run speedup {section['speedup_vs_scalar']:.2f}x < "
            f"{CLUSTER_SURGE_SPEEDUP:.1f}x"
        )
    # The suite wall clock gates loosely (wall time is host-dependent):
    # only when both documents carry the row, and only against gross
    # (> 2x per experiment) slowdowns.
    base_suite = baseline.get("results", {}).get("suite_wall")
    cur_suite = current["results"].get("suite_wall")
    if base_suite is not None and cur_suite is not None:
        base_per = base_suite["wall_s_per_experiment"]
        now_per = cur_suite["wall_s_per_experiment"]
        limit = base_per * (1.0 + SUITE_WALL_TOLERANCE)
        if now_per > limit:
            failures.append(
                f"experiment suite wall clock regressed: "
                f"{now_per:.2f}s/experiment vs baseline {base_per:.2f}s "
                f"(limit {limit:.2f}s)"
            )
    return failures


def _write_profile(path: str, top: int = 20) -> None:
    """cProfile one quick ``cluster_surge`` cohort run into ``path``.

    The CI bench-smoke job uploads this as an artifact so hot-path
    regressions come with the profile that explains them.
    """
    import cProfile
    import io
    import pstats

    from repro.cluster.balancer import ClusterSimulator
    from repro.platforms.catalog import platform as platform_by_name
    from repro.workloads.websearch import make_websearch

    simulator = ClusterSimulator(
        platform_by_name("srvr1"),
        make_websearch(),
        **_cluster_config(quick=True),
    )
    profile = cProfile.Profile()
    profile.enable()
    simulator.run()
    profile.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(buffer.getvalue())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the simulation engine and experiment pipeline.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small iteration counts (CI smoke mode)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="full iteration counts (default unless --quick)",
    )
    parser.add_argument(
        "--e2e", action="store_true",
        help="also time the full experiment sweep, cold and warm cache",
    )
    parser.add_argument(
        "--suite", action="store_true",
        help="also time the user-facing `repro-experiments --all --jobs N` "
        "command (the suite_wall row)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the --e2e/--suite sweeps",
    )
    parser.add_argument(
        "--profile", metavar="FILE",
        help="cProfile one quick cluster_surge cohort run and write the "
        "top functions by cumulative time to FILE",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=DEFAULT_OUTPUT,
        help=f"results file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="fail (exit 1) if any gated metric regressed versus this "
        "committed baseline JSON",
    )
    args = parser.parse_args(argv)

    quick = args.quick and not args.full
    if args.profile:
        _write_profile(args.profile)
        print(f"wrote cohort profile to {args.profile}")
    document = run_benchmarks(
        quick=quick, e2e=args.e2e, jobs=args.jobs, suite=args.suite
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")

    for name, metrics in document["results"].items():
        rendered = ", ".join(f"{k}={v}" for k, v in metrics.items())
        print(f"{name}: {rendered}")
    print(f"wrote {args.output}")

    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_regression(document, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            "regression check passed: headline cohort speedup "
            f"{document['headline'][HEADLINE[1]]:.2f}x vs baseline "
            f"{baseline['headline'][HEADLINE[1]]:.2f}x"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
