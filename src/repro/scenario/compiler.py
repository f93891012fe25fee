"""Lower a :class:`Scenario` onto the serving-tier engine.

``compile_scenario`` expands the declarative spec into a flat list of
picklable :class:`RunPlan` records -- one per (tier x overlay x rack x
traffic segment) -- resolving every name (platform/design, benchmark,
fault profile, disk configuration) and every derived quantity (analytic
capacity, open-loop arrival rates, the ``queue_cap="auto"`` sizing) at
compile time.  Execution fans the plans across worker processes with
:func:`repro.perf.parallel.pmap`; results are merged in plan order, so
a ``--jobs 4`` run is bit-identical to a serial one.

Every plan lowers onto one :class:`ClusterSimulator` and runs on its
engine, :mod:`repro.cluster.engine`.

The EXT-8/EXT-10/EXT-11 experiment modules run their library
scenarios through this compiler;
``tests/scenario/test_digest_equality.py`` holds each compiled run
digest-identical to a direct :class:`ClusterSimulator` construction of
the same configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.cluster.capacity import (
    open_loop_rate_rps,
    per_server_capacity_rps,
    surge_queue_cap,
)
from repro.cluster.diurnal import DiurnalLoadModel
from repro.faults.failslow import _MASK64, _splitmix64
from repro.memsim.remote_memory import make_remote_memory_model
from repro.scenario import registry
from repro.scenario.dag import make_dag_workload
from repro.scenario.spec import (
    ClosedLoopSpec,
    OverlaySpec,
    Scenario,
    TierSpec,
    WorkloadSpec,
)
from repro.workloads.suite import make_workload

#: Simulated hours of a compiled diurnal day.
DAY_HOURS = 24

#: Quick-mode window scaling (CI smoke; structure is preserved -- a
#: diurnal day still has 24 segments, only each segment is shorter).
QUICK_TIME_SCALE = 0.25
QUICK_DIURNAL_SCALE = 0.2
QUICK_MIN_MEASURE_MS = 400.0
QUICK_MIN_WARMUP_MS = 200.0
QUICK_MIN_REQUESTS = 200


@dataclass(frozen=True)
class ArrivalPlan:
    """Resolved open-loop program for one run (absolute rates)."""

    base_rate_rps: float
    surge_multiplier: float = 1.0
    surge_start_ms: float = 0.0
    surge_end_ms: float = 0.0
    warmup_ms: float = 2000.0
    measure_ms: float = 20_000.0


@dataclass(frozen=True)
class RunPlan:
    """One fully-resolved engine run (picklable for ``pmap``)."""

    run_id: str
    tier: TierSpec
    workload: WorkloadSpec
    overlay: OverlaySpec
    seed: int
    rack: int = 0
    segment: Optional[str] = None
    region_blend: Optional[str] = None
    closed: Optional[ClosedLoopSpec] = None
    arrival: Optional[ArrivalPlan] = None
    #: Analytic per-server capacity (0.0 for closed-loop plans).
    capacity_rps_per_server: float = 0.0
    #: Resolved overload queue bound (None = policy default/unbounded).
    queue_cap: Optional[int] = None


@dataclass
class RunRecord:
    """One executed run: headline metrics and digest."""

    run_id: str
    tier: str
    overlay: str
    rack: int
    segment: Optional[str]
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    per_server_rps: float
    p99_ms: float
    qos_violation_rate: float
    #: Whether the window met the workload's QoS; False when it measured
    #: no response.
    qos_met: bool
    digest: str
    result: object = field(repr=False, default=None)
    tracer: object = field(repr=False, default=None)
    metrics: object = field(repr=False, default=None)


@dataclass
class ScenarioResult:
    """Ordered run records plus the modeled-scale accounting."""

    scenario_name: str
    runs: List[RunRecord]
    scale: Dict[str, float]

    def digest(self) -> str:
        """SHA-256 over the ordered per-run stream digests."""
        hasher = hashlib.sha256()
        for record in self.runs:
            hasher.update(f"{record.run_id}={record.digest}\n".encode())
        return hasher.hexdigest()

    def render(self) -> str:
        from repro.experiments.reporting import format_table

        rows = []
        for r in self.runs:
            rows.append((
                r.run_id,
                f"{r.offered_rps:.0f}",
                f"{r.throughput_rps:.0f}",
                f"{r.goodput_rps:.0f}",
                f"{r.p99_ms:.0f} ms",
            ))
        lines = [
            f"scenario: {self.scenario_name}",
            "",
            format_table(
                ["run", "offered r/s", "tput r/s", "goodput r/s", "p99"],
                rows,
            ),
        ]
        if self.scale:
            lines.append("")
            lines.append("modeled scale:")
            for key, value in self.scale.items():
                if isinstance(value, float):
                    lines.append(f"  {key}: {value:,.0f}")
                else:
                    lines.append(f"  {key}: {value}")
        lines.append("")
        lines.append(f"digest: {self.digest()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cached_dag_workload(dag):
    return make_dag_workload(dag)


def _build_workload(spec: WorkloadSpec):
    """The spec's workload, built once per process.

    Workloads and remote-memory models are stateless across runs (one
    instance can serve a healthy and a faulted run alike), so
    construction -- sampler and trace tables are expensive next to a
    short run -- is memoized: benchmarks by
    :func:`repro.workloads.suite.make_workload` itself, remote-memory
    models by :func:`repro.memsim.remote_memory.make_remote_memory_model`
    itself, and DAG workloads here, keyed on the frozen spec.
    """
    if spec.benchmark is not None:
        return make_workload(spec.benchmark)
    assert spec.dag is not None
    return _cached_dag_workload(spec.dag)


def _tier_platform(tier: TierSpec):
    if tier.design is not None:
        return registry.design(tier.design).platform
    from repro.platforms.catalog import platform

    return platform(tier.platform)


def _tier_models(tier: TierSpec, spec: WorkloadSpec):
    """(remote_memory_model, disk_spec) of a tier serving ``spec``."""
    remote = None
    disk_spec = None
    if tier.remote_memory is not None:
        remote = make_remote_memory_model(
            spec.benchmark,
            local_fraction=tier.remote_memory.local_fraction,
            trace_length=tier.remote_memory.trace_length,
        )
    if tier.flash is not None:
        from repro.flashcache.analysis import disk_configuration

        disk_spec = disk_configuration(tier.flash.configuration).disk_spec(
            spec.benchmark
        )
    return remote, disk_spec


def tier_capacity_rps(tier: TierSpec, workload_spec: WorkloadSpec) -> float:
    """Analytic per-server capacity of a tier (the sizing the open-loop
    ``utilization`` and ``queue_cap="auto"`` rules are derived from)."""
    workload = _build_workload(workload_spec)
    platform = _tier_platform(tier)
    remote, disk_spec = _tier_models(tier, workload_spec)
    return per_server_capacity_rps(
        platform, workload,
        remote_memory=remote, disk_spec=disk_spec, servers=tier.servers,
    )


def _diurnal_rates(open_loop, peak_rate: float) -> List[float]:
    """Per-hour cluster rates: weight-blended, time-zone-shifted copies
    of the (peak-normalized) diurnal curve times the peak rate."""
    diurnal = open_loop.diurnal
    model = DiurnalLoadModel(
        peak_to_trough=diurnal.peak_to_trough,
        peak_hour=diurnal.peak_hour,
        weekend_factor=diurnal.weekend_factor,
    )
    regions = open_loop.regions
    rates = []
    for hour in range(DAY_HOURS):
        midpoint = hour + 0.5
        if regions:
            total_weight = sum(region.weight for region in regions)
            load = sum(
                (region.weight / total_weight)
                * model.load_at((midpoint - region.peak_hour_offset) % 24.0)
                for region in regions
            )
        else:
            load = model.load_at(midpoint)
        rates.append(peak_rate * load * diurnal.weekend_factor)
    return rates


def _segments(
    scenario: Scenario, tier: TierSpec, quick: bool
) -> List[Tuple[Optional[str], Optional[ClosedLoopSpec],
                Optional[ArrivalPlan], float]]:
    """Expand the traffic program into (label, closed, arrival,
    capacity) segments for one tier."""
    traffic = scenario.traffic
    if traffic.closed_loop is not None:
        closed = traffic.closed_loop
        if quick:
            closed = ClosedLoopSpec(
                warmup_requests=max(
                    QUICK_MIN_REQUESTS // 4,
                    int(closed.warmup_requests * QUICK_TIME_SCALE)),
                measure_requests=max(
                    QUICK_MIN_REQUESTS,
                    int(closed.measure_requests * QUICK_TIME_SCALE)),
            )
        return [(None, closed, None, 0.0)]

    open_loop = traffic.open_loop
    capacity = tier_capacity_rps(tier, scenario.workload)
    if open_loop.base_rate_rps is not None:
        peak_rate = open_loop.base_rate_rps
    else:
        peak_rate = open_loop_rate_rps(
            open_loop.utilization, capacity, tier.servers)

    if open_loop.diurnal is None:
        warmup_ms = open_loop.warmup_ms
        measure_ms = open_loop.measure_ms
        surge = open_loop.surge
        multiplier, start_ms, end_ms = 1.0, 0.0, 0.0
        if surge is not None:
            multiplier = surge.multiplier
            start_ms = surge.start_ms
            end_ms = surge.end_ms
        if quick:
            warmup_ms = max(QUICK_MIN_WARMUP_MS, warmup_ms * QUICK_TIME_SCALE)
            measure_ms = max(
                QUICK_MIN_MEASURE_MS, measure_ms * QUICK_TIME_SCALE)
            start_ms *= QUICK_TIME_SCALE
            end_ms *= QUICK_TIME_SCALE
        plan = ArrivalPlan(
            base_rate_rps=peak_rate,
            surge_multiplier=multiplier,
            surge_start_ms=start_ms,
            surge_end_ms=end_ms,
            warmup_ms=warmup_ms,
            measure_ms=measure_ms,
        )
        return [(None, None, plan, capacity)]

    diurnal = open_loop.diurnal
    sim_ms = diurnal.sim_ms_per_hour
    warmup_ms = open_loop.warmup_ms
    if quick:
        sim_ms = max(QUICK_MIN_MEASURE_MS, sim_ms * QUICK_DIURNAL_SCALE)
        warmup_ms = max(QUICK_MIN_WARMUP_MS, warmup_ms * QUICK_TIME_SCALE)
    segments = []
    for hour, rate in enumerate(_diurnal_rates(open_loop, peak_rate)):
        multiplier, start_ms, end_ms = 1.0, 0.0, 0.0
        if diurnal.flash_crowd_hour == hour:
            multiplier = diurnal.flash_crowd_multiplier
            start_ms = warmup_ms + 0.25 * sim_ms
            end_ms = warmup_ms + 0.75 * sim_ms
        segments.append((
            f"h{hour:02d}",
            None,
            ArrivalPlan(
                base_rate_rps=rate,
                surge_multiplier=multiplier,
                surge_start_ms=start_ms,
                surge_end_ms=end_ms,
                warmup_ms=warmup_ms,
                measure_ms=sim_ms,
            ),
            capacity,
        ))
    return segments


def _resolve_queue_cap(
    overlay: OverlaySpec, capacity: float
) -> Optional[int]:
    overload = overlay.overload
    if overload is None or not overload.protected:
        return None
    if overload.queue_cap == "auto":
        timeout_ms = (overlay.retry.timeout_ms
                      if overlay.retry is not None else 1000.0)
        return surge_queue_cap(capacity, timeout_ms)
    return overload.queue_cap


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministic per-rack/per-segment seed: a splitmix64 chain over
    the scenario seed and the plan's indices."""
    value = _splitmix64(seed & _MASK64)
    for part in parts:
        value = _splitmix64(value ^ _splitmix64(part & _MASK64))
    return value


def compile_scenario(scenario: Scenario, quick: bool = False):
    """Validate and lower a scenario; returns a :class:`CompiledScenario`."""
    scenario.check()
    plans: List[RunPlan] = []
    multi_rack = scenario.topology.racks > 1
    for tier in scenario.topology.tiers:
        segments = _segments(scenario, tier, quick)
        multi_segment = len(segments) > 1
        for overlay in scenario.overlays:
            for rack in range(scenario.topology.racks):
                for index, (label, closed, arrival, capacity) in enumerate(
                        segments):
                    parts = [tier.name, overlay.name]
                    if multi_rack:
                        parts.append(f"rack{rack:02d}")
                    if label is not None:
                        parts.append(label)
                    if multi_rack or multi_segment:
                        seed = derive_seed(scenario.seed, rack, index)
                    else:
                        seed = scenario.seed
                    plans.append(RunPlan(
                        run_id="/".join(parts),
                        tier=tier,
                        workload=scenario.workload,
                        overlay=overlay,
                        seed=seed,
                        rack=rack,
                        segment=label,
                        closed=closed,
                        arrival=arrival,
                        capacity_rps_per_server=capacity,
                        queue_cap=_resolve_queue_cap(overlay, capacity),
                    ))
    return CompiledScenario(scenario=scenario, plans=plans, quick=quick)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _build_cluster_simulator(plan: RunPlan):
    """Construct the ClusterSimulator for one plan.

    Optional pieces are only passed when the overlay declares them, so
    the simulator is bit-identical to a direct construction of the same
    configuration.
    """
    from repro.cluster.balancer import ClusterSimulator, RetryPolicy
    from repro.cluster.overload import OverloadPolicy, SurgeSchedule

    tier = plan.tier
    workload = _build_workload(plan.workload)
    platform = _tier_platform(tier)
    remote, disk_spec = _tier_models(tier, plan.workload)
    kwargs = dict(
        platform=platform,
        workload=workload,
        servers=tier.servers,
        clients_per_server=tier.clients_per_server,
        seed=plan.seed,
        disk_spec=disk_spec,
        remote_memory=remote,
    )
    if tier.dispatch is not None:
        kwargs["dispatch"] = registry.DISPATCH[tier.dispatch]
    if plan.closed is not None:
        kwargs.update(
            warmup_requests=plan.closed.warmup_requests,
            measure_requests=plan.closed.measure_requests,
        )
    else:
        arrival = plan.arrival
        kwargs.update(
            arrivals=SurgeSchedule(
                base_rate_rps=arrival.base_rate_rps,
                surge_multiplier=arrival.surge_multiplier,
                surge_start_ms=arrival.surge_start_ms,
                surge_end_ms=arrival.surge_end_ms,
            ),
            warmup_ms=arrival.warmup_ms,
            measure_ms=arrival.measure_ms,
        )
    overlay = plan.overlay
    if overlay.retry is not None:
        retry = overlay.retry
        kwargs["retry"] = RetryPolicy(
            timeout_ms=retry.timeout_ms,
            max_retries=retry.max_retries,
            backoff_base_ms=retry.backoff_base_ms,
            backoff_factor=retry.backoff_factor,
            hedge_after_ms=retry.hedge_after_ms,
            jitter=retry.jitter,
        )
    if overlay.faults is not None:
        kwargs.update(
            faults=registry.fault_profile(overlay.faults.profile),
            fault_seed=overlay.faults.fault_seed,
            enclosure_size=tier.enclosure_size or tier.servers,
        )
    if overlay.overload is not None:
        if not overlay.overload.protected:
            kwargs["overload"] = OverloadPolicy.unprotected()
        else:
            kwargs["overload"] = OverloadPolicy(queue_cap=plan.queue_cap)
    if overlay.failslow is not None:
        from repro.faults.failslow import (
            DetectionPolicy,
            FailSlowPlan,
            SlowResource,
        )

        failslow = overlay.failslow
        kwargs["failslow"] = FailSlowPlan.single_slow_node(
            server=failslow.server,
            factor=failslow.factor,
            resource=SlowResource(failslow.resource),
            at_ms=failslow.at_ms,
        )
        if failslow.detection:
            kwargs["failslow_detection"] = DetectionPolicy()
    # A tier without a memory blade has nothing to protect: it runs as
    # if the overlay had no redundancy block.
    if overlay.redundancy is not None and tier.remote_memory is not None:
        from repro.faults.recovery import RedundancyConfig
        from repro.memsim.redundancy import RedundancyPolicy

        redundancy = overlay.redundancy
        if redundancy.mode == "replica":
            policy = RedundancyPolicy.replicated(copies=redundancy.copies)
        elif redundancy.mode == "parity":
            policy = RedundancyPolicy.parity(
                data_shards=redundancy.data_shards)
        else:
            policy = None
        kwargs["redundancy"] = RedundancyConfig(
            policy=policy,
            blades=redundancy.blades,
            pages_per_server=redundancy.pages_per_server,
        )
    tracer = None
    metrics = None
    if overlay.tracing is not None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        tracer = Tracer(
            sample_rate=overlay.tracing.sample_rate,
            seed=overlay.tracing.trace_seed,
        )
        metrics = MetricsRegistry()
        kwargs.update(tracer=tracer, metrics=metrics)
    return ClusterSimulator(**kwargs), tracer, metrics


def _execute_run(plan: RunPlan) -> RunRecord:
    """Run one plan (module-level so ``pmap`` can pickle it)."""
    sim, tracer, metrics = _build_cluster_simulator(plan)
    result = sim.run()
    return RunRecord(
        run_id=plan.run_id,
        tier=plan.tier.name,
        overlay=plan.overlay.name,
        rack=plan.rack,
        segment=plan.segment,
        offered_rps=result.offered_rps,
        throughput_rps=result.throughput_rps,
        goodput_rps=result.goodput_rps,
        per_server_rps=result.per_server_rps,
        p99_ms=result.p99_ms,
        qos_violation_rate=result.qos_violation_rate,
        qos_met=result.qos_met,
        digest=result.stream_digest(),
        result=result,
        tracer=tracer,
        metrics=metrics,
    )


@dataclass
class CompiledScenario:
    """A validated scenario lowered to an ordered list of run plans."""

    scenario: Scenario
    plans: List[RunPlan]
    quick: bool = False

    def describe(self) -> str:
        """Human-readable plan: rates, windows, modeled scale."""
        from repro.experiments.reporting import format_table

        rows = []
        for plan in self.plans:
            if plan.closed is not None:
                traffic = (f"closed {plan.closed.warmup_requests}"
                           f"+{plan.closed.measure_requests} req")
            else:
                arrival = plan.arrival
                traffic = f"open {arrival.base_rate_rps:.0f} r/s"
                if arrival.surge_multiplier > 1.0:
                    traffic += f" x{arrival.surge_multiplier:g} surge"
            rows.append((
                plan.run_id,
                traffic,
                f"{plan.capacity_rps_per_server:.0f}",
                str(plan.seed),
            ))
        lines = [
            f"scenario: {self.scenario.name}",
            f"runs: {len(self.plans)}",
            "",
            format_table(
                ["run", "traffic", "cap r/s/srv", "seed"], rows),
        ]
        scale = self.scale()
        if scale:
            lines.append("")
            lines.append("modeled scale:")
            for key, value in scale.items():
                if isinstance(value, float):
                    lines.append(f"  {key}: {value:,.0f}")
                else:
                    lines.append(f"  {key}: {value}")
        return "\n".join(lines)

    def scale(self) -> Dict[str, float]:
        """Modeled (uncompressed) scale the compiled runs stand for.

        Each diurnal segment represents one real hour; the simulated
        window compresses it.  Rates are real, so requests/day and the
        user population are reported at modeled scale.
        """
        open_loop = self.scenario.traffic.open_loop
        if open_loop is None:
            return {}
        racks = self.scenario.topology.racks
        overlays = max(1, len(self.scenario.overlays))
        arrival_plans = [p for p in self.plans if p.arrival is not None]
        if not arrival_plans:
            return {}
        peak_rate = max(
            p.arrival.base_rate_rps * p.arrival.surge_multiplier
            for p in arrival_plans) * racks
        scale: Dict[str, float] = {
            "racks": float(racks),
            "servers_total": float(sum(
                t.servers for t in self.scenario.topology.tiers) * racks),
            "aggregate_peak_rps": peak_rate,
            "modeled_users": peak_rate / open_loop.user_request_rate_rps,
        }
        if open_loop.diurnal is not None:
            # One segment per (tier, overlay, rack, hour): each hour of
            # the modeled day contributes rate x 3600 s of requests.
            per_day = sum(
                p.arrival.base_rate_rps for p in arrival_plans) * 3600.0
            scale["modeled_requests_per_day"] = per_day / overlays
            scale["simulated_ms_per_hour"] = arrival_plans[0].arrival.measure_ms
        return scale

    def execute(self, jobs: int = 1) -> ScenarioResult:
        """Run every plan (optionally across worker processes) and merge
        the records in plan order (bit-identical for any ``jobs``)."""
        from repro.perf.parallel import pmap

        records = pmap(_execute_run, self.plans, jobs=jobs)
        return ScenarioResult(
            scenario_name=self.scenario.name,
            runs=records,
            scale=self.scale(),
        )


def run_scenario(
    scenario: Scenario, jobs: int = 1, quick: bool = False
) -> ScenarioResult:
    """Compile and execute in one call."""
    return compile_scenario(scenario, quick=quick).execute(jobs=jobs)


__all__ = [
    "ArrivalPlan",
    "RunPlan",
    "RunRecord",
    "ScenarioResult",
    "CompiledScenario",
    "compile_scenario",
    "run_scenario",
    "tier_capacity_rps",
]
