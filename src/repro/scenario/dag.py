"""Compile a :class:`RequestDagSpec` into a :class:`Workload`.

A scenario's inline request DAG is deterministic: every request demands
the sum of its steps' resources (the steps run on one serving node; the
DAG's edges order them but the node's stations -- CPU, memory, disk,
NIC -- are what the simulator contends on).  The resulting workload is
a first-class :class:`repro.workloads.base.Workload` usable anywhere a
suite benchmark is, including the cohort engine's fast-demand path
(the sampler draws nothing from the RNG, so the fast path trivially
consumes the same zero draws).
"""

from __future__ import annotations

from repro.scenario.spec import RequestDagSpec
from repro.workloads.base import (
    MetricKind,
    PopulationPolicy,
    Request,
    ResourceDemand,
    Workload,
    WorkloadProfile,
)
from repro.workloads.qos import QosSpec


def dag_demand(dag: RequestDagSpec) -> ResourceDemand:
    """Summed per-request demand of every step in the DAG."""
    return ResourceDemand(
        cpu_ms_ref=sum(step.cpu_ms_ref for step in dag.steps),
        mem_ms_ref=sum(step.mem_ms_ref for step in dag.steps),
        disk_ios=sum(step.disk_ios for step in dag.steps),
        disk_bytes=sum(step.disk_bytes for step in dag.steps),
        net_bytes=sum(step.net_bytes for step in dag.steps),
        disk_write=any(step.disk_write for step in dag.steps),
        cpu_parallelism=max(step.cpu_parallelism for step in dag.steps),
    )


def make_dag_workload(dag: RequestDagSpec) -> Workload:
    """Module-level factory (picklable via ``functools.partial``)."""
    demand = dag_demand(dag)
    request = Request(demand=demand, kind=dag.name)
    profile = WorkloadProfile(
        name=dag.name,
        description=f"scenario request DAG ({len(dag.steps)} steps)",
        emphasizes="declared per-step demands",
        metric_kind=MetricKind.RPS_QOS,
        mean_demand=demand,
        population=PopulationPolicy(fixed=32),
        qos=QosSpec(limit_ms=dag.qos_limit_ms, percentile=dag.qos_percentile),
        think_time_ms=dag.think_time_ms,
    )
    return Workload(profile, lambda rng: request)
