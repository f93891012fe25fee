"""Top-level performance scoring, the way the paper reports it.

- Interactive benchmarks (websearch, webmail, ytube): requests/second at
  the QoS-constrained peak found by the adaptive driver.
- Batch benchmarks (mapred-wc, mapred-wr): job execution time with the
  fixed thread population; the *score* used in ratios is the reciprocal
  of execution time, matching the paper's harmonic-mean treatment
  ("throughput and reciprocal of execution times").

``relative_performance_matrix`` reproduces the "Perf" block of Figure
2(c): every (benchmark, system) cell as a fraction of srvr1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.flashcache.models import DiskSpec
from repro.platforms.catalog import platform as _platform
from repro.platforms.platform import Platform
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.simulator.sweep import _PERF_MEMO, QosSweep
from repro.workloads.base import MetricKind, Workload
from repro.workloads.suite import make_workload


@dataclass(frozen=True)
class PerformanceResult:
    """Score of one (platform, workload) pair."""

    platform: str
    workload: str
    metric_kind: MetricKind
    #: requests/second for interactive benchmarks; tasks/second for batch.
    throughput_rps: float
    #: job execution time in seconds (batch benchmarks only).
    execution_time_s: Optional[float]
    qos_met: bool

    @property
    def score(self) -> float:
        """Scalar used in performance ratios and harmonic means."""
        if self.metric_kind is MetricKind.EXECUTION_TIME:
            assert self.execution_time_s is not None
            return 1.0 / self.execution_time_s
        return self.throughput_rps


def measure_performance(
    platform: Platform,
    workload: Workload,
    config: SimConfig = SimConfig(),
    disk_spec: Optional[DiskSpec] = None,
    memory_slowdown: float = 1.0,
    method: str = "sim",
) -> PerformanceResult:
    """Score one (platform, workload) pair.

    ``method='sim'`` runs the DES (with the adaptive QoS driver for
    interactive benchmarks); ``method='analytic'`` uses the MVA model
    (no QoS constraint -- useful for fast exploration).  ``disk_spec``
    replaces the platform's own disk: one model is built from it per
    call and serves the whole sweep.  A spec that serves like the
    platform's own disk is scored on the platform's disk path, which
    evaluates the same expression per request.

    Scores are memoized process-wide on (platform, workload profile,
    ``config``, disk key, ``memory_slowdown``, ``method``), where the
    disk key is ``service_key()`` of ``disk_spec``, or of
    ``DiskSpec(platform.disk)`` without one.  So a repeated call -- or
    one whose disks differ only in name, price or power, such as Table
    3's desktop-disk baseline and emb1's own disk -- returns the first
    call's result without simulating
    (:func:`repro.simulator.sweep.clear_sweep_memo` resets it).
    """
    if method not in ("sim", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    own_disk = DiskSpec(platform.disk).service_key()
    disk_key = own_disk if disk_spec is None else disk_spec.service_key()
    key = (platform, workload.profile, config, disk_key, memory_slowdown, method)
    result = _PERF_MEMO.get(key)
    if result is None:
        disk_model = None if disk_key == own_disk else disk_spec.build()
        result = _PERF_MEMO[key] = _score(
            platform, workload, config, disk_model, memory_slowdown, method
        )
    return result


def _score(
    platform: Platform,
    workload: Workload,
    config: SimConfig,
    disk_model,
    memory_slowdown: float,
    method: str,
) -> PerformanceResult:
    profile = workload.profile
    if method == "analytic":
        disk_service = None
        if disk_model is not None:
            disk_service = disk_model.mean_service_ms(workload.mean_demand())
        model = AnalyticServerModel(
            platform,
            workload,
            disk_service_ms=disk_service,
            cpu_multiplier=memory_slowdown,
        )
        rps = model.throughput_rps()
        qos_met = True
    elif profile.metric_kind is MetricKind.EXECUTION_TIME:
        result = ServerSimulator(
            platform,
            workload,
            config=config,
            disk_model=disk_model,
            memory_slowdown=memory_slowdown,
        ).run()
        rps = result.throughput_rps
        qos_met = True
    else:
        sweep = QosSweep(
            platform,
            workload,
            config=config,
            disk_model=disk_model,
            memory_slowdown=memory_slowdown,
        ).find_peak()
        rps = sweep.throughput_rps
        qos_met = sweep.qos_met

    execution_time = None
    if profile.metric_kind is MetricKind.EXECUTION_TIME:
        execution_time = profile.total_work_units / max(rps, 1e-12)

    return PerformanceResult(
        platform=platform.name,
        workload=workload.name,
        metric_kind=profile.metric_kind,
        throughput_rps=rps,
        execution_time_s=execution_time,
        qos_met=qos_met,
    )


def relative_performance_matrix(
    system_names: Iterable[str],
    benchmark_names: Iterable[str],
    baseline: str = "srvr1",
    method: str = "sim",
    config: SimConfig = SimConfig(),
) -> Dict[str, Dict[str, float]]:
    """Figure 2(c) "Perf" block: scores relative to ``baseline``.

    Returns ``{benchmark: {system: fraction_of_baseline}}``.
    """
    systems = list(system_names)
    if baseline not in systems:
        systems = [baseline] + systems
    matrix: Dict[str, Dict[str, float]] = {}
    for bench in benchmark_names:
        workload = make_workload(bench)
        scores = {
            name: measure_performance(
                _platform(name), workload, config=config, method=method
            ).score
            for name in systems
        }
        base = scores[baseline]
        matrix[bench] = {name: scores[name] / base for name in systems}
    return matrix
