"""Latency-vs-load curves: why QoS caps utilization (open-loop study).

The paper measures peak RPS at fixed QoS.  The open-loop simulator shows
*why* that peak sits below the bottleneck bound: response time grows
nonlinearly with offered load, and the p95 crosses the QoS budget well
before the server saturates.  For each system we sweep the offered
websearch load from 30% to 90% of the system's analytic saturation and
report mean/p95 latency and whether QoS still holds.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.platforms.catalog import platform
from repro.simulator.analytic import AnalyticServerModel
from repro.simulator.server_sim import ServerSimulator, SimConfig
from repro.workloads.suite import make_workload

SYSTEMS = ("srvr1", "desk", "emb1")
LOAD_POINTS = (0.3, 0.5, 0.7, 0.9)
BENCH = "websearch"


def run(config: SimConfig = SimConfig()) -> ExperimentResult:
    """Offered-load sweeps per system."""
    workload = make_workload(BENCH)
    sections = {}
    data: Dict[str, Dict[float, Dict[str, float]]] = {}
    qos_budget = workload.profile.qos.limit_ms

    for system in SYSTEMS:
        plat = platform(system)
        saturation = AnalyticServerModel(plat, workload).saturation_rps()
        rows = []
        data[system] = {}
        for load in LOAD_POINTS:
            rate = load * saturation
            try:
                result = ServerSimulator(
                    plat, workload, arrival_rate_rps=rate, config=config
                ).run()
            except RuntimeError:
                rows.append((percent(load), f"{rate:.1f}", "--", "--", "OVERLOAD"))
                data[system][load] = {"overloaded": 1.0}
                continue
            data[system][load] = {
                "rate_rps": rate,
                "mean_ms": result.mean_response_ms,
                "p95_ms": result.qos_percentile_ms,
                "qos_met": float(result.qos_met),
            }
            rows.append(
                (
                    percent(load),
                    f"{rate:.1f}",
                    f"{result.mean_response_ms:.0f} ms",
                    f"{result.qos_percentile_ms:.0f} ms",
                    "ok" if result.qos_met else "VIOLATED",
                )
            )
        sections[f"{system} (saturation {saturation:.1f} req/s)"] = format_table(
            ["offered load", "req/s", "mean", "p95", f"QoS<{qos_budget:.0f}ms"],
            rows,
        )

    return ExperimentResult(
        experiment_id="EXT-14",
        title="Latency vs offered load (open loop)",
        paper_reference="section 2.1 (QoS methodology)",
        sections=sections,
        data=data,
    )
