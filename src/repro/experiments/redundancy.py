"""Redundancy and recovery for shared-fate memory blades: EXT-13.

The paper's N2 design concentrates 8 servers' remote working sets on
one memory blade -- a shared-fate resource whose single failure EXT-8
prices as a correlated outage and whose *graceful* degradation (fall
back to local paging) this repo simulates.  Warehouse practice does
neither: it replicates.  This experiment adds the missing arm of that
argument by sweeping one blade fault storm across three protection
levels of the same N2 cluster, identical seed and workload:

- **unprotected** -- today's single blade; its loss drops every server
  to swap-path paging (~50x per-miss) for the whole repair window;
- **2-replica** -- every remote page written to two of three blades;
  a blade loss fails reads over to the surviving copy at 1x transfer
  amplification, and a background *rebuild stream* re-replicates onto
  the repaired blade as real simulated traffic sharing the blade link;
- **4+1 parity** -- RAID-5-style striping over five blades at 1.25x
  capacity overhead; degraded reads reconstruct from k surviving
  shards (kx amplification), so protection is cheaper but the failover
  window costs more link time.

The rebuild stream is throttled by a token bucket plus a
p99-backpressure gate (:class:`~repro.faults.recovery.RebuildPolicy`),
and every run is traced, so the interference bill is explicit:
foreground blade-link spans that queued behind rebuild chunks carry a
``rebuild=True`` attribute and the critical-path table shows the
remote-memory milliseconds at the p99.  A rolling-maintenance section
drains each server in turn through the same recovery machinery, and a
durability section prices the arms against each other: MTTDL from the
classic Markov approximation, probability of data loss over the
three-year depreciation cycle, and the paper's Perf/TCO-$ re-weighted
by durability and charged for the redundant capacity.

Determinism: redundancy bookkeeping consumes zero RNG, rebuild is
scripted traffic, and with the group healthy the balancer's fast path
is byte-identical to the unprotected one -- asserted here by digest
equality -- so the grid fans out with ``pmap`` reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.balancer import ClusterSimulator, RetryPolicy
from repro.costmodel.availability import (
    DurabilityAdjustedTco,
    DurabilityModel,
    RepairCostModel,
)
from repro.costmodel.components import Component
from repro.costmodel.power import PowerModel
from repro.costmodel.tco import TcoModel
from repro.experiments.availability import (
    DEGRADED_CREDIT,
    _TRACE_LENGTH,
    _WORKLOAD,
    _setups,
)
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.faults.model import ComponentType, DEFAULT_FAULT_PROFILE
from repro.faults.recovery import (
    BladeFault,
    MaintenancePlan,
    RebuildPolicy,
    RedundancyConfig,
)
from repro.flashcache.analysis import disk_configuration
from repro.memsim.redundancy import RedundancyPolicy
from repro.memsim.remote_memory import make_remote_memory_model
from repro.obs.critical_path import attribute_critical_path
from repro.obs.export import trace_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanKind
from repro.obs.tracer import Tracer
from repro.perf.parallel import intra_jobs, merge_telemetry, pmap
from repro.workloads.suite import make_workload

#: Remote pages per server in the simulated blade group (content-level
#: bookkeeping scale, not the full working set).
PAGES_PER_SERVER = 256

#: Fraction of the working set kept in local DRAM on N2.
LOCAL_FRACTION = 0.25

#: The storm: blade 0 dies 1 s in and comes back (blank) at 15 s, so
#: the degraded window covers a large slice of the measured run *and*
#: the post-repair rebuild stream contends with live foreground
#: traffic for the rest of it.
BLADE_STORM = (BladeFault(0, 1_000.0, 15_000.0),)

#: QoS-aware rebuild throttle used by every protected arm.
REBUILD = RebuildPolicy(
    chunk_pages=64,
    rate_pages_per_s=20_000.0,
    backpressure_ms=600.0,
)

#: Per-attempt retry/hedge policy shared by every arm.
RETRY = RetryPolicy(
    timeout_ms=1000.0, max_retries=3, backoff_base_ms=20.0,
    hedge_after_ms=400.0,
)

#: Nominal blade capacity for the analytic rebuild-window estimate.
BLADE_GB = 16.0

#: Protection arms: policy constructor args keyed by name.
POLICIES: Dict[str, Optional[RedundancyPolicy]] = {
    "unprotected": None,
    "replica": RedundancyPolicy.replicated(2),
    "parity": RedundancyPolicy.parity(4),
}

#: Blade-group width per arm (replica spreads 2 copies over 3 blades;
#: parity stripes 4+1 over 5).
BLADES: Dict[str, int] = {"unprotected": 1, "replica": 3, "parity": 5}


def _redundancy_config(
    policy_name: str, storm: bool
) -> RedundancyConfig:
    """The :class:`RedundancyConfig` for one arm of the sweep."""
    return RedundancyConfig(
        policy=POLICIES[policy_name],
        blades=BLADES[policy_name],
        pages_per_server=PAGES_PER_SERVER,
        rebuild=REBUILD,
        blade_faults=BLADE_STORM if storm else (),
    )


@dataclass(frozen=True)
class RedundancyRunConfig:
    """One cluster run of the EXT-13 grid (picklable for ``pmap``)."""

    #: "baseline" (no redundancy machinery at all), "healthy"
    #: (protected, no faults -- the digest guard), "storm", or
    #: "rolling" (maintenance drains, no blade faults).
    scenario: str
    #: Key into :data:`POLICIES`; ignored for "baseline".
    policy: str = "unprotected"
    servers: int = 4
    clients_per_server: int = 8
    warmup: int = 200
    measure: int = 1500
    seed: int = 1
    sample_rate: float = 1.0
    trace_seed: int = 17
    traced: bool = True


def run_redundancy_config(config: RedundancyRunConfig) -> dict:
    """Run one arm; module-level so ``pmap`` can fan the grid out."""
    simulator, tracer, metrics = _redundancy_simulator(config)
    return {
        "config": config,
        "result": simulator.run(),
        "tracer": tracer,
        "metrics": metrics,
    }


def _redundancy_simulator(config: RedundancyRunConfig):
    """The :class:`ClusterSimulator` of one arm, with its tracer (None
    when untraced) and metrics registry."""
    setup = next(s for s in _setups() if s.name == "N2")
    workload = make_workload(_WORKLOAD)
    remote = make_remote_memory_model(
        _WORKLOAD, local_fraction=LOCAL_FRACTION, trace_length=_TRACE_LENGTH
    )
    disk_spec = disk_configuration("remote-laptop+flash").disk_spec(_WORKLOAD)

    redundancy = None
    maintenance = None
    if config.scenario == "healthy":
        redundancy = _redundancy_config(config.policy, storm=False)
    elif config.scenario == "storm":
        redundancy = _redundancy_config(config.policy, storm=True)
    elif config.scenario == "rolling":
        redundancy = _redundancy_config(config.policy, storm=False)
        maintenance = MaintenancePlan.rolling(
            config.servers, start_ms=5_000.0, duration_ms=4_000.0,
            gap_ms=1_000.0,
        )
    elif config.scenario != "baseline":
        raise ValueError(f"unknown scenario {config.scenario!r}")

    tracer = (
        Tracer(sample_rate=config.sample_rate, seed=config.trace_seed)
        if config.traced
        else None
    )
    metrics = MetricsRegistry()
    simulator = ClusterSimulator(
        platform=setup.design.platform,
        workload=workload,
        servers=config.servers,
        clients_per_server=config.clients_per_server,
        seed=config.seed,
        warmup_requests=config.warmup,
        measure_requests=config.measure,
        disk_spec=disk_spec,
        remote_memory=remote,
        retry=RETRY,
        redundancy=redundancy,
        maintenance=maintenance,
        tracer=tracer,
        metrics=metrics,
    )
    return simulator, tracer, metrics


def _remote_p99_ms(payload: dict) -> float:
    """Exclusive remote-memory milliseconds in the p99 critical path."""
    tracer = payload["tracer"]
    if tracer is None:
        return 0.0
    attributions = attribute_critical_path(
        tracer.completed_traces(), percentiles=(0.99,)
    )
    if not attributions:
        return 0.0
    return attributions[0].components.get(SpanKind.REMOTE_MEM, 0.0)


def _rebuild_flagged_spans(payload: dict) -> int:
    """Foreground blade-link spans that ran while a rebuild was active."""
    tracer = payload["tracer"]
    if tracer is None:
        return 0
    return sum(
        1
        for trace in tracer.traces
        for span in trace.spans
        if span.attrs is not None and span.attrs.get("rebuild")
    )


def _rebuild_window_hours(policy: Optional[RedundancyPolicy]) -> float:
    """Hours to re-protect one blank blade at the throttle's rate."""
    if policy is None:
        return 0.0
    pages = BLADE_GB * 1024**3 / 4096.0
    transfers = pages * policy.rebuild_transfers_per_page
    return transfers / REBUILD.rate_pages_per_s / 3600.0


def _fmt_ms(value: float) -> str:
    return f"{value:.1f} ms"


def run(
    servers: int = 4,
    clients_per_server: int = 8,
    warmup: int = 200,
    measure: int = 1500,
    seed: int = 1,
    sample_rate: float = 1.0,
    trace_seed: int = 17,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep unprotected / 2-replica / 4+1-parity N2 under a blade storm."""
    common = dict(
        servers=servers,
        clients_per_server=clients_per_server,
        warmup=warmup,
        measure=measure,
        seed=seed,
        sample_rate=sample_rate,
        trace_seed=trace_seed,
    )
    configs: List[RedundancyRunConfig] = [
        RedundancyRunConfig(scenario="baseline", **common),
        RedundancyRunConfig(scenario="healthy", policy="replica", **common),
        RedundancyRunConfig(scenario="storm", policy="unprotected", **common),
        RedundancyRunConfig(scenario="storm", policy="replica", **common),
        RedundancyRunConfig(scenario="storm", policy="parity", **common),
        RedundancyRunConfig(scenario="rolling", policy="replica", **common),
    ]
    payloads = pmap(
        run_redundancy_config,
        configs,
        jobs=intra_jobs() if jobs is None else jobs,
    )
    by_key = {
        (p["config"].scenario, p["config"].policy): p for p in payloads
    }

    data: Dict[str, object] = {}
    sections: Dict[str, str] = {}

    baseline = by_key[("baseline", "unprotected")]
    healthy_on = by_key[("healthy", "replica")]
    base_result = baseline["result"]
    digest_off = base_result.stream_digest()
    digest_on = healthy_on["result"].stream_digest()
    data["digest_match"] = digest_off == digest_on
    data["stream_digest"] = digest_off

    # -- headline: the storm across protection levels ------------------
    storm_rows = []
    arm_data: Dict[str, object] = {}
    for policy_name in POLICIES:
        payload = by_key[("storm", policy_name)]
        result = payload["result"]
        rr = result.recovery_report
        fault_report = result.fault_report
        retention = (
            result.goodput_rps / base_result.goodput_rps
            if base_result.goodput_rps
            else 0.0
        )
        lost = rr.audit.lost if rr.audit is not None else 0
        storm_rows.append([
            policy_name,
            _fmt_ms(result.p99_ms),
            f"{result.p99_ms / base_result.p99_ms:.2f}x",
            f"{result.goodput_rps:.1f} rps",
            percent(retention),
            str(rr.failover_requests),
            str(fault_report.degraded_requests if fault_report else 0),
            str(rr.pages_rebuilt),
            str(lost),
        ])
        arm_data[policy_name] = {
            "p99_ms": result.p99_ms,
            "goodput_rps": result.goodput_rps,
            "goodput_retention": retention,
            "failover_requests": rr.failover_requests,
            "lossy_requests": rr.lossy_requests,
            "degraded_requests": (
                fault_report.degraded_requests if fault_report else 0
            ),
            "pages_rebuilt": rr.pages_rebuilt,
            "exposure_ms": rr.exposure_ms,
            "lost_pages": lost,
            "duplicated_pages": (
                rr.audit.duplicated if rr.audit is not None else 0
            ),
            "conserved": rr.audit.conserved if rr.audit is not None else None,
            "data_loss": rr.data_loss,
            "remote_p99_component_ms": _remote_p99_ms(payload),
        }
    data["healthy_p99_ms"] = base_result.p99_ms
    data["healthy_goodput_rps"] = base_result.goodput_rps
    data["storm"] = arm_data
    sections[
        "one blade fault storm vs protection level (N2, identical seed)"
    ] = format_table(
        [
            "Arm", "p99", "vs healthy", "goodput", "retention",
            "failover reqs", "degraded reqs", "pages rebuilt", "lost pages",
        ],
        storm_rows,
    )

    # -- rebuild stream: real traffic, real interference ----------------
    healthy_remote_p99 = _remote_p99_ms(baseline)
    rebuild_rows = []
    for policy_name in ("replica", "parity"):
        payload = by_key[("storm", policy_name)]
        rr = payload["result"].recovery_report
        rebuild_rows.append([
            policy_name,
            str(rr.pages_rebuilt),
            str(rr.rebuild_chunks),
            _fmt_ms(rr.rebuild_ms),
            str(rr.throttle_denials),
            str(rr.backpressure_pauses),
            _fmt_ms(rr.exposure_ms),
            str(_rebuild_flagged_spans(payload)),
            _fmt_ms(arm_data[policy_name]["remote_p99_component_ms"]),
        ])
        arm_data[policy_name]["rebuild_chunks"] = rr.rebuild_chunks
        arm_data[policy_name]["rebuild_ms"] = rr.rebuild_ms
        arm_data[policy_name]["throttle_denials"] = rr.throttle_denials
        arm_data[policy_name]["backpressure_pauses"] = rr.backpressure_pauses
        arm_data[policy_name]["rebuild_flagged_spans"] = (
            _rebuild_flagged_spans(payload)
        )
    data["healthy_remote_p99_component_ms"] = healthy_remote_p99
    sections[
        "rebuild as foreground traffic (token bucket + p99 backpressure)"
    ] = format_table(
        [
            "Arm", "pages", "chunks", "stream time", "rate denials",
            "backpressure", "exposure window", "delayed fg spans",
            "remote-mem ms @ p99",
        ],
        rebuild_rows,
    ) + (
        f"\nhealthy remote-mem ms @ p99: {healthy_remote_p99:.1f} ms; the "
        "exposure window is how long any page sat below full redundancy."
    )

    # -- rolling maintenance through the same machinery -----------------
    rolling = by_key[("rolling", "replica")]
    rolling_result = rolling["result"]
    rolling_rr = rolling_result.recovery_report
    rolling_retention = (
        rolling_result.goodput_rps / base_result.goodput_rps
        if base_result.goodput_rps
        else 0.0
    )
    data["rolling"] = {
        "drains": rolling_rr.drains,
        "drain_ms": rolling_rr.drain_ms,
        "p99_ms": rolling_result.p99_ms,
        "goodput_retention": rolling_retention,
        "hedges": (
            rolling_result.fault_report.hedges
            if rolling_result.fault_report
            else 0
        ),
    }
    sections["rolling upgrade: drain each server in turn (2-replica)"] = (
        format_table(
            ["Drains", "total drained time", "p99", "goodput retention"],
            [[
                str(rolling_rr.drains),
                _fmt_ms(rolling_rr.drain_ms),
                _fmt_ms(rolling_result.p99_ms),
                percent(rolling_retention),
            ]],
        )
    )

    # -- durability-adjusted TCO ----------------------------------------
    setup = next(s for s in _setups() if s.name == "N2")
    repair_model = RepairCostModel(DEFAULT_FAULT_PROFILE)
    model = TcoModel(power_model=PowerModel(rack=setup.design.rack()))
    adjusted = model.availability_adjusted(
        setup.design.bill(),
        repair_model,
        setup.components,
        shared=setup.shared,
        degraded=DEGRADED_CREDIT,
    )
    blade_spec = DEFAULT_FAULT_PROFILE.spec(ComponentType.MEMORY_BLADE)
    # The blade slice of the DRAM bill: everything not kept locally.
    memory_capex = (
        setup.design.bill().components[Component.MEMORY].cost_usd
        * (1.0 - LOCAL_FRACTION)
    )
    durability_rows = []
    durability_data: Dict[str, object] = {}
    metrics_by_arm: Dict[str, float] = {}
    for policy_name, policy in POLICIES.items():
        durability_model = DurabilityModel.for_policy(
            blade_spec,
            policy,
            blades=BLADES[policy_name],
            rebuild_hours=_rebuild_window_hours(policy),
        )
        priced = DurabilityAdjustedTco(
            adjusted=adjusted,
            durability_model=durability_model,
            memory_capex_usd=memory_capex,
        )
        perf = arm_data[policy_name]["goodput_rps"] / servers
        metric = priced.durability_weighted_perf_per_tco(perf)
        metrics_by_arm[policy_name] = metric
        durability_rows.append([
            policy_name,
            str(durability_model.group_width),
            str(durability_model.fault_tolerance),
            f"{durability_model.capacity_overhead:.2f}x",
            f"{durability_model.mttdl_hours / 8760.0:.3g} yr",
            f"{durability_model.data_loss_probability():.2e}",
            f"${priced.redundancy_capex_usd:.0f}",
            f"{metric:.4f}",
        ])
        durability_data[policy_name] = {
            "mttdl_hours": durability_model.mttdl_hours,
            "data_loss_probability": (
                durability_model.data_loss_probability()
            ),
            "redundancy_capex_usd": priced.redundancy_capex_usd,
            "durability_weighted_perf_per_tco": metric,
        }
    base_metric = metrics_by_arm["unprotected"]
    for row, policy_name in zip(durability_rows, POLICIES):
        row.append(
            percent(metrics_by_arm[policy_name] / base_metric)
            if base_metric
            else "n/a"
        )
        durability_data[policy_name]["relative_metric"] = (
            metrics_by_arm[policy_name] / base_metric if base_metric else 0.0
        )
    data["durability"] = durability_data
    sections["durability-adjusted Perf/TCO-$ over the 3-year cycle"] = (
        format_table(
            [
                "Arm", "blades", "tolerance", "capacity", "MTTDL",
                "P(loss)/cycle", "extra capex", "perf/TCO-$", "relative",
            ],
            durability_rows,
        )
    )

    data["trace_digests"] = {
        f"{p['config'].scenario}/{p['config'].policy}": trace_digest(
            [(
                f"{p['config'].scenario}/{p['config'].policy}",
                p["tracer"].traces,
            )]
        )
        for p in payloads
        if p["tracer"] is not None
    }
    combined = merge_telemetry(p["metrics"] for p in payloads)
    if combined is not None:
        data["combined"] = {
            "rebuild_pages": combined.value("rebuild.pages"),
            "rebuild_chunks": combined.value("rebuild.chunks"),
            "backpressure_pauses": combined.value(
                "rebuild.backpressure_pauses"
            ),
            "throttle_denials": combined.value("rebuild.throttle_denials"),
        }

    replica = arm_data["replica"]
    unprot = arm_data["unprotected"]
    sections["conclusion"] = (
        "losing the shared blade costs the unprotected N2 a "
        f"{unprot['p99_ms'] / base_result.p99_ms:.2f}x p99 cliff -- "
        f"{unprot['degraded_requests']} requests page in over the ~50x "
        "swap path during the repair window.  Two-way replication holds "
        f"{percent(replica['goodput_retention'])} of healthy goodput "
        "through the same storm -- failover reads cost one transfer, so "
        "the link model is unchanged -- and re-replicates "
        f"{replica['pages_rebuilt']} pages as throttled background "
        "traffic once the blade returns; 4+1 parity buys the same "
        "single-fault tolerance at 1.25x capacity (vs 2x) but pays kx "
        "link amplification while degraded.  The durability table "
        "prices the trade: the unprotected arm's "
        f"{durability_data['unprotected']['data_loss_probability']:.0%} "
        "chance of losing remote pages inside the depreciation cycle "
        "outweighs the replicas' capacity premium, and with the group "
        "healthy the whole layer costs nothing -- the protected run's "
        "request stream is byte-identical to the unprotected one "
        f"(digest match: {data['digest_match']})."
    )
    data["workload"] = _WORKLOAD
    data["pages_per_server"] = PAGES_PER_SERVER
    data["rebuild_rate_pages_per_s"] = REBUILD.rate_pages_per_s
    data["sample_rate"] = sample_rate
    data["trace_seed"] = trace_seed
    return ExperimentResult(
        experiment_id="EXT-13",
        title="Redundancy and recovery for shared-fate memory blades",
        paper_reference="section 3.4 memory blade, shared-fate failure",
        sections=sections,
        data=data,
    )
