"""Putting it all together: scoring designs against baselines.

``evaluate_designs`` runs the full pipeline for any set of designs
(baselines and unified designs alike): per-benchmark performance through
the simulator (or the analytic model), per-design cost/power through the
TCO model, then the four relative-efficiency tables of Figures 2(c) and
5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.designs import BaselineDesign, UnifiedDesign
from repro.core.efficiency import EfficiencyTable, build_efficiency_tables
from repro.core.metrics import METRIC_ATTRIBUTES, EfficiencyMetrics
from repro.perf.parallel import intra_jobs, pmap
from repro.simulator.performance import measure_performance
from repro.simulator.server_sim import SimConfig
from repro.workloads.suite import make_workload

Design = Union[BaselineDesign, UnifiedDesign]


def _measure_one(task: Tuple[Design, str, str, SimConfig]) -> float:
    """Module-level worker (picklable): score one (design, benchmark)."""
    design, bench, method, config = task
    workload = make_workload(bench)
    result = measure_performance(
        design.platform,
        workload,
        config=config,
        disk_spec=design.disk_model_for(bench),
        memory_slowdown=design.memory_slowdown_for(bench),
        method=method,
    )
    return result.score


@dataclass
class DesignEvaluation:
    """All measurements for one design set."""

    designs: List[str]
    benchmarks: List[str]
    baseline: str
    #: benchmark -> design -> EfficiencyMetrics
    metrics: Dict[str, Dict[str, EfficiencyMetrics]]
    #: metric display name -> relative table
    tables: Dict[str, EfficiencyTable]

    def table(self, metric: str) -> EfficiencyTable:
        return self.tables[metric]


def evaluate_designs(
    designs: Sequence[Design],
    benchmarks: Iterable[str],
    baseline: str,
    method: str = "sim",
    config: SimConfig = SimConfig(),
    jobs: Optional[int] = None,
) -> DesignEvaluation:
    """Score every (design, benchmark) pair and build relative tables.

    The (benchmark, design) grid points are independent seeded runs, so
    with ``jobs > 1`` they are fanned out across worker processes and
    merged back in grid order -- scores are identical to the serial
    loop.  ``jobs=None`` uses the process-wide setting the CLI's
    ``--jobs`` installs (see :func:`repro.perf.parallel.set_intra_jobs`).
    """
    design_list = list(designs)
    names = [d.name for d in design_list]
    if baseline not in names:
        raise ValueError(f"baseline {baseline!r} not among designs {names}")
    bench_list = list(benchmarks)

    cost_inputs = {}
    for design in design_list:
        breakdown = design.tco_breakdown()
        cost_inputs[design.name] = (
            breakdown.consumed_power_w,
            breakdown.hardware_total_usd,
            breakdown.power_cooling_total_usd,
        )

    if jobs is None:
        jobs = intra_jobs()
    tasks = [
        (design, bench, method, config)
        for bench in bench_list
        for design in design_list
    ]
    scores = pmap(_measure_one, tasks, jobs=jobs)

    metrics: Dict[str, Dict[str, EfficiencyMetrics]] = {}
    grid = iter(scores)
    for bench in bench_list:
        per_design: Dict[str, EfficiencyMetrics] = {}
        for design in design_list:
            score = next(grid)
            power_w, inf_usd, pc_usd = cost_inputs[design.name]
            per_design[design.name] = EfficiencyMetrics(
                system=design.name,
                benchmark=bench,
                performance=score,
                power_w=power_w,
                infrastructure_usd=inf_usd,
                power_cooling_usd=pc_usd,
            )
        metrics[bench] = per_design

    tables = build_efficiency_tables(metrics, baseline, METRIC_ATTRIBUTES)
    return DesignEvaluation(
        designs=names,
        benchmarks=bench_list,
        baseline=baseline,
        metrics=metrics,
        tables=tables,
    )
