"""Figure 5: cost and power efficiencies of the unified designs N1 and N2.

Per-benchmark Perf/Inf-$, Perf/W, and Perf/TCO-$ of N1 (mobile blades +
dual-entry enclosures) and N2 (embedded microblades + aggregated cooling +
memory sharing + remote flash-cached disks), relative to srvr1, plus the
harmonic mean.  Paper headline: 1.5x (N1) to 2.0x (N2) average
Perf/TCO-$, 2x-3.5x (N1) and 3.5x-6x (N2) on ytube/mapreduce, with
webmail degrading (~40% loss on N1, ~20% on N2).

Section 3.6 also compares against srvr2 and desk baselines (E13), which
``run`` reports when ``include_alternate_baselines`` is set.
"""

from __future__ import annotations

from typing import Dict

from repro.core.analysis import DesignEvaluation, evaluate_designs
from repro.core.designs import baseline_design, n1_design, n2_design
from repro.core.metrics import harmonic_mean
from repro.costmodel.realestate import DEFAULT_REAL_ESTATE
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.simulator.server_sim import SimConfig
from repro.workloads.suite import benchmark_names

#: Metric blocks reported by Figure 5.
FIGURE5_METRICS = ["Perf/Inf-$", "Perf/W", "Perf/TCO-$"]


def _tables_section(evaluation: DesignEvaluation, label: str) -> Dict[str, str]:
    sections = {}
    systems = evaluation.designs
    for metric in FIGURE5_METRICS:
        table = evaluation.table(metric)
        rows = [
            [bench] + [percent(table.cells[bench][s]) for s in systems]
            for bench in list(table.cells)
        ]
        sections[f"{metric} {label}"] = format_table([metric] + systems, rows)
    return sections


def equal_performance_comparison(evaluation: DesignEvaluation) -> Dict[str, Dict[str, float]]:
    """Section 3.6's restated result: "for the same performance as the
    baseline, N2 gets a 60% reduction in power, 55% reduction in overall
    costs, and consumes 30% less racks."

    For each design, size a fleet delivering srvr1's aggregate throughput
    (per benchmark, harmonic-mean aggregated) and compare fleet power,
    fleet TCO, fleet floor space, and rack count against the srvr1 fleet.
    """
    perf_table = evaluation.table("Perf")
    out: Dict[str, Dict[str, float]] = {}
    base_metrics = next(iter(evaluation.metrics.values()))["srvr1"]
    designs = {d: None for d in evaluation.designs if d != "srvr1"}
    from repro.core.designs import n1_design, n2_design  # local: avoid cycle

    design_objects = {"N1": n1_design(), "N2": n2_design()}
    for name in designs:
        design = design_objects.get(name)
        if design is None:
            continue
        servers_needed = harmonic_mean(
            [1.0 / perf_table.value(bench, name) for bench in perf_table.benchmarks]
        )
        # Per-server cost/power of the design (same for all benchmarks).
        metrics = next(iter(evaluation.metrics.values()))[name]
        power_ratio = servers_needed * metrics.power_w / base_metrics.power_w
        cost_ratio = servers_needed * metrics.tco_usd / base_metrics.tco_usd
        rack_density = design.rack().servers_per_rack
        # Floor space scales with rack count, so racks_ratio covers both.
        racks_ratio = (servers_needed / rack_density) / (1.0 / 40.0)
        out[name] = {
            "servers_per_srvr1": servers_needed,
            "power_reduction": 1.0 - power_ratio,
            "cost_reduction": 1.0 - cost_ratio,
            "racks_reduction": 1.0 - racks_ratio,
            "floor_cost_per_srvr1_usd": (
                servers_needed * DEFAULT_REAL_ESTATE.cost_per_rack_usd / rack_density
            ),
        }
    return out


def run(
    method: str = "sim",
    config: SimConfig = SimConfig(),
    include_alternate_baselines: bool = True,
) -> ExperimentResult:
    """Regenerate Figure 5 (and the section 3.6 alternate-baseline text)."""
    designs = [baseline_design("srvr1"), n1_design(), n2_design()]
    evaluation = evaluate_designs(
        designs, benchmark_names(), baseline="srvr1", method=method, config=config
    )
    sections = _tables_section(evaluation, "(vs srvr1)")
    data = {"vs_srvr1": evaluation.tables, "metrics": evaluation.metrics}

    equal_perf = equal_performance_comparison(evaluation)
    data["equal_performance"] = equal_perf
    rows = [
        (
            name,
            f"{vals['servers_per_srvr1']:.1f}",
            percent(vals["power_reduction"]),
            percent(vals["cost_reduction"]),
            percent(vals["racks_reduction"]),
        )
        for name, vals in equal_perf.items()
    ]
    sections["equal-performance fleets (section 3.6)"] = format_table(
        ["Design", "servers/srvr1", "power saved", "cost saved", "racks saved"],
        rows,
    )

    if include_alternate_baselines:
        for base_name in ("srvr2", "desk"):
            alt = evaluate_designs(
                [baseline_design(base_name), n1_design(), n2_design()],
                benchmark_names(),
                baseline=base_name,
                method=method,
                config=config,
            )
            tco = alt.table("Perf/TCO-$")
            rows = [
                [bench] + [percent(tco.cells[bench][s]) for s in alt.designs]
                for bench in list(tco.cells)
            ]
            sections[f"Perf/TCO-$ (vs {base_name})"] = format_table(
                ["Perf/TCO-$"] + alt.designs, rows
            )
            data[f"vs_{base_name}"] = alt.tables

    return ExperimentResult(
        experiment_id="E12/E13",
        title="Unified designs N1 and N2",
        paper_reference="Figure 5",
        sections=sections,
        data=data,
    )
