"""Table 3: low-power disks with flash disk caches.

- Table 3(a): device parameters (flash, laptop, laptop-2, desktop disks).
- Table 3(b): net cost and power efficiencies (harmonic mean across the
  benchmark suite) of each disk configuration on the emb1 deployment
  target, relative to the local desktop-disk baseline.  Paper values:
  remote laptop 93%/100%/96%, remote laptop + flash 99%/109%/104%,
  remote laptop-2 + flash 110%/109%/110% (Perf/Inf-$ / Perf/W /
  Perf/TCO-$).
"""

from __future__ import annotations

from typing import Dict

from repro.core.metrics import harmonic_mean
from repro.costmodel.catalog import server_bill
from repro.costmodel.power import PowerModel
from repro.costmodel.tco import TcoModel
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.flashcache.analysis import DISK_CONFIGURATIONS
from repro.platforms.catalog import platform
from repro.platforms.storage import (
    DESKTOP_DISK,
    FLASH_1GB,
    LAPTOP2_DISK,
    LAPTOP_DISK,
)
from repro.simulator.performance import measure_performance
from repro.simulator.server_sim import SimConfig
from repro.workloads.suite import benchmark_names, make_workload

#: The deployment target for the disk study (paper: emb1).
TARGET_SYSTEM = "emb1"


def device_table() -> str:
    """Table 3(a): the four storage devices."""
    devices = [FLASH_1GB, LAPTOP_DISK, LAPTOP2_DISK, DESKTOP_DISK]
    rows = []
    for d in devices:
        access = (
            f"{d.read_latency_ms * 1000:.0f}us rd / {d.write_latency_ms * 1000:.0f}us wr"
            if d.is_flash
            else f"{d.read_latency_ms:.0f} ms avg"
        )
        rows.append(
            (
                d.name,
                f"{d.bandwidth_mb_s:.0f} MB/s",
                access,
                f"{d.capacity_gb:g} GB",
                f"{d.power_w:g} W",
                f"${d.price_usd:g}",
                str(d.location),
            )
        )
    return format_table(
        ["Device", "Bandwidth", "Access time", "Capacity", "Power", "Price", "Location"],
        rows,
    )


def configuration_efficiencies(
    method: str = "sim", config: SimConfig = SimConfig()
) -> Dict[str, Dict[str, float]]:
    """Table 3(b): efficiency ratios per disk configuration."""
    plat = platform(TARGET_SYSTEM)
    base_bill = server_bill(TARGET_SYSTEM)
    tco_model = TcoModel()
    power_model = PowerModel()
    benches = benchmark_names()

    # Per-configuration performance scores and costs.
    scores: Dict[str, Dict[str, float]] = {}
    costs: Dict[str, Dict[str, float]] = {}
    for disk_config in DISK_CONFIGURATIONS:
        bill = base_bill.replace(
            name=f"{TARGET_SYSTEM}+{disk_config.name}",
            disk=disk_config.disk_component(),
        )
        breakdown = tco_model.breakdown(bill)
        costs[disk_config.name] = {
            "inf": breakdown.hardware_total_usd,
            "watt": power_model.server_consumed_w(bill),
            "tco": breakdown.total_usd,
        }
        per_bench = {}
        for bench in benches:
            workload = make_workload(bench)
            result = measure_performance(
                plat,
                workload,
                config=config,
                disk_spec=disk_config.disk_spec(bench),
                method=method,
            )
            per_bench[bench] = result.score
        scores[disk_config.name] = per_bench

    # Relative efficiencies (HMean of per-benchmark ratios vs baseline).
    out: Dict[str, Dict[str, float]] = {}
    base_scores = scores["baseline"]
    base_costs = costs["baseline"]
    for disk_config in DISK_CONFIGURATIONS:
        name = disk_config.name
        perf_ratios = [
            scores[name][b] / base_scores[b] for b in benches
        ]
        perf = harmonic_mean(perf_ratios)
        out[name] = {
            "perf": perf,
            "perf_per_inf": perf * base_costs["inf"] / costs[name]["inf"],
            "perf_per_watt": perf * base_costs["watt"] / costs[name]["watt"],
            "perf_per_tco": perf * base_costs["tco"] / costs[name]["tco"],
        }
    return out


def run(method: str = "sim", config: SimConfig = SimConfig()) -> ExperimentResult:
    """Regenerate Table 3."""
    efficiencies = configuration_efficiencies(method=method, config=config)
    rows = [
        (
            name,
            percent(vals["perf"]),
            percent(vals["perf_per_inf"]),
            percent(vals["perf_per_watt"]),
            percent(vals["perf_per_tco"]),
        )
        for name, vals in efficiencies.items()
    ]
    table_b = format_table(
        ["Disk type", "Perf", "Perf/Inf-$", "Perf/Watt", "Perf/TCO-$"], rows
    )
    return ExperimentResult(
        experiment_id="E10/E11",
        title="Low-power disks with flash disk caches",
        paper_reference="Table 3(a,b)",
        sections={"devices (a)": device_table(), "efficiencies (b)": table_b},
        data={"efficiencies": efficiencies},
    )
