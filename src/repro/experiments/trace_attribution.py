"""Critical-path tail-latency attribution for the unified designs: EXT-11.

The availability experiment (EXT-8) shows N2's faulted p95 spiking when
the shared memory blade fails, but a percentile alone cannot say *where*
the milliseconds went -- blade reconnect waits?  retry backoff?  queueing
behind degraded peers?  This experiment re-runs the section 3.6
srvr1/N1/N2 clusters under the same accelerated fault profile and
degradation stack with per-request distributed tracing enabled
(:mod:`repro.obs`) -- the ``ext11-trace-attribution`` library
scenario -- then decomposes each design's latency percentiles into
exclusive per-component time along the critical path.  Its span log
and Chrome trace come from running the same scenario through
``repro-scenario run examples/scenarios/ext11_trace_attribution.yaml
--output DIR``.

For every design the result carries a p50/p95/p99 attribution table:
each row charges 100% of the tail set's mean latency to queue, cpu, mem,
remote_mem, flash, disk, net, retry, and "other" (uninstrumented
dispatch gaps).  The per-trace decomposition sums exactly to the
end-to-end latency by construction (see
:mod:`repro.obs.critical_path`), so the shares always total 100% -- the
acceptance check asserts it.

Tracing is deterministic: the sampling decision is a pure hash of the
request sequence number, so the traced runs here produce bit-identical
:class:`~repro.cluster.balancer.ClusterResult` values to EXT-8's
untraced faulted runs, and the reported trace digests are reproducible
byte-for-byte across hosts and ``--jobs`` settings.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.faults.model import STRESS_FAULT_PROFILE
from repro.obs.critical_path import (
    COMPONENT_ORDER,
    attribute_critical_path,
    format_attribution,
)
from repro.obs.export import trace_digest
from repro.perf.parallel import intra_jobs, merge_telemetry

#: Percentiles reported in every attribution table.
PERCENTILES = (0.50, 0.95, 0.99)


def summarize(record) -> dict:
    """JSON-friendly attribution summary of one traced design run (a
    :class:`~repro.scenario.compiler.RunRecord`)."""
    tracer = record.tracer
    result = record.result
    completed = tracer.completed_traces()
    attributions = attribute_critical_path(completed, percentiles=PERCENTILES)
    per_percentile: Dict[str, dict] = {}
    for attribution in attributions:
        shares = attribution.shares()
        per_percentile[f"p{attribution.percentile * 100:g}"] = {
            "latency_ms": attribution.latency_ms,
            "trace_count": attribution.trace_count,
            "mean_tail_ms": attribution.total_ms,
            "components_ms": dict(attribution.components),
            "shares": shares,
            "share_sum": sum(shares.values()),
        }
    return {
        "traces": len(tracer.traces),
        "completed_traces": len(completed),
        "truncated_traces": len(tracer.traces) - len(completed),
        "requests_seen": tracer.requests_seen,
        "trace_digest": trace_digest([(record.tier, tracer.traces)]),
        "per_server_rps": result.per_server_rps,
        "qos_percentile_ms": result.qos_percentile_ms,
        "attribution": per_percentile,
        "attributions": attributions,
    }


def run(
    servers: int = 6,
    clients_per_server: int = 6,
    warmup: int = 200,
    measure: int = 1800,
    seed: int = 1,
    fault_seed: int = 7,
    sample_rate: float = 1.0,
    trace_seed: int = 17,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Trace the faulted srvr1/N1/N2 runs and attribute their tails."""
    from repro.scenario import run_scenario
    from repro.scenario.library import ext11_trace_attribution

    scenario = ext11_trace_attribution(
        servers=servers, clients_per_server=clients_per_server,
        warmup=warmup, measure=measure, seed=seed, fault_seed=fault_seed,
        sample_rate=sample_rate, trace_seed=trace_seed,
    )
    records = run_scenario(
        scenario, jobs=intra_jobs() if jobs is None else jobs).runs

    data: Dict[str, object] = {}
    sections: Dict[str, str] = {}
    p99_rows = []
    for record in records:
        name = record.tier
        summary = summarize(record)
        attributions = summary.pop("attributions")
        data[name] = summary
        sections[f"critical-path attribution -- {name}"] = format_attribution(
            attributions
        )
        p99 = summary["attribution"].get("p99")
        if p99 is not None:
            shares = p99["shares"]
            p99_rows.append(
                [name, f"{p99['latency_ms']:.0f} ms"]
                + [
                    percent(shares.get(kind, 0.0))
                    for kind in COMPONENT_ORDER
                ]
            )

    if p99_rows:
        sections["p99 critical path by design"] = format_table(
            ["Design", "p99"] + list(COMPONENT_ORDER), p99_rows
        )

    # Fold the per-worker registries into one fleet-level view (the
    # lossless shard merge the ``--jobs`` path relies on): histograms
    # combine without rebinning, counters add, so the combined p99 is
    # exactly what a single shared registry would have recorded.
    combined = merge_telemetry(record.metrics for record in records)
    if combined is not None:
        response = combined.get("cluster.response_ms")
        data["combined"] = {
            "served": combined.value("cluster.requests", outcome="served"),
            "timeouts": combined.value("cluster.timeouts"),
            "retries": combined.value("cluster.retries"),
            "hedges": combined.value("cluster.hedges"),
            "response_p99_ms": (
                response.percentile_ms(0.99, default=None)
                if response is not None
                else None
            ),
        }
    sections["conclusion"] = (
        "tracing turns EXT-8's tail percentiles into a bill: srvr1's "
        "p99 is dominated by its own serving path (disk and queueing "
        "behind failed peers), while N2's tail adds the shared-blade "
        "failure domain -- remote-memory waits, degraded-swap disk "
        "time, and the retry/hedge spans the degradation stack spends "
        "routing around correlated faults.  Per-trace component times "
        "sum exactly to end-to-end latency, so every share row above "
        "totals 100%."
    )
    data["workload"] = scenario.workload.benchmark
    data["fault_profile"] = STRESS_FAULT_PROFILE.name
    data["sample_rate"] = sample_rate
    data["trace_seed"] = trace_seed
    return ExperimentResult(
        experiment_id="EXT-11",
        title="Critical-path tail-latency attribution",
        paper_reference="section 3.6 designs under faults, traced",
        sections=sections,
        data=data,
    )
