"""Metastable overload and the protection stack: EXT-10.

The paper sizes its ensembles for *sustained* throughput per TCO dollar
and pushes availability "into the application stack" (section 2).  This
experiment asks what that application stack must contain by driving the
srvr1/N1/N2 clusters through a 5x traffic surge in open-loop mode (a
diurnal peak or viral spike against a cluster provisioned near the
paper's utilization targets) under two serving stacks:

- *naive*: the plain timeout-and-retry policy of the availability
  experiment's degradation stack, with unbounded server queues.  During
  the surge, queues grow past the client timeout; after it, every
  dequeued request is already stale, every timeout re-dispatches work,
  and the retry amplification keeps the cluster saturated -- goodput
  stays collapsed long after the offered load has returned to normal
  (a *metastable* failure).
- *protected*: the full :class:`repro.cluster.overload.OverloadPolicy`
  stack -- bounded queues, deadline shedding, adaptive admission
  control, a shared retry budget, per-server circuit breakers, brownout,
  and full-jitter retry backoff.  Goodput dips to the shed-controlled
  level during the surge and recovers to the pre-surge baseline within
  seconds of the surge ending.

The cost coda reprices each design's Perf/TCO-$ with the repair-adjusted
TCO of the availability experiment and the *achieved goodput* of each
serving stack: hardware choice moves the metric by tens of percent,
while an unprotected software stack zeroes it during every surge.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.costmodel.availability import RepairCostModel
from repro.costmodel.power import PowerModel
from repro.costmodel.tco import TcoModel
from repro.experiments.availability import DEGRADED_CREDIT, _setups
from repro.experiments.reporting import ExperimentResult, format_table
from repro.faults.model import DEFAULT_FAULT_PROFILE
from repro.simulator.telemetry import TimeSeries


def _recovery_ms(
    goodput: TimeSeries,
    surge_end_ms: float,
    end_ms: float,
    target_rate_rps: float,
    smooth_buckets: int = 2,
) -> Optional[float]:
    """Time from surge end until goodput first sustains the target rate.

    Scans the goodput timeline after ``surge_end_ms`` with a small
    rolling mean (``smooth_buckets`` wide) and returns the delay until
    it first reaches ``target_rate_rps``; ``None`` if it never does
    before ``end_ms`` (the metastable case).
    """
    if target_rate_rps <= 0:
        return 0.0
    bucket = goodput.bucket_ms
    values = dict(goodput.series())
    start_index = math.ceil(surge_end_ms / bucket)
    last_index = int(end_ms / bucket) - smooth_buckets
    scale = 1000.0 / bucket
    for index in range(start_index, last_index + 1):
        window = [
            values.get((index + j) * bucket, 0.0) * scale
            for j in range(smooth_buckets)
        ]
        if sum(window) / smooth_buckets >= target_rate_rps:
            return index * bucket - surge_end_ms
    return None


def run(
    servers: int = 4,
    seed: int = 3,
    load_fraction: float = 0.6,
    surge_multiplier: float = 5.0,
    warmup_ms: float = 2000.0,
    surge_start_ms: float = 6000.0,
    surge_end_ms: float = 11_000.0,
    measure_ms: float = 22_000.0,
    recovery_fraction: float = 0.95,
) -> ExperimentResult:
    """Drive each design through a traffic surge, naive vs protected.

    Each cluster is offered ``load_fraction`` of its analytic capacity,
    multiplied by ``surge_multiplier`` inside the surge window.  The
    measurement window is ``[warmup_ms, warmup_ms + measure_ms)``.  The
    runs are the ``ext10-overload`` library scenario built with these
    keywords; ``recovery_fraction`` only shapes the report.
    """
    from repro.scenario import compile_scenario
    from repro.scenario.library import ext10_overload

    compiled = compile_scenario(ext10_overload(
        servers=servers, seed=seed, load_fraction=load_fraction,
        surge_multiplier=surge_multiplier, warmup_ms=warmup_ms,
        surge_start_ms=surge_start_ms, surge_end_ms=surge_end_ms,
        measure_ms=measure_ms,
    ))
    plans = {plan.run_id: plan for plan in compiled.plans}
    records = {record.run_id: record for record in compiled.execute().runs}
    repair_model = RepairCostModel(DEFAULT_FAULT_PROFILE)
    data: Dict[str, Dict[str, object]] = {}
    surge_rows = []
    activity_rows = []
    cost_rows = []
    weighted: Dict[str, Dict[str, float]] = {}

    for setup in _setups():
        plan = plans[f"{setup.name}/naive"]
        runs = {mode: records[f"{setup.name}/{mode}"]
                for mode in ("naive", "protected")}
        end_ms = warmup_ms + measure_ms
        design_data: Dict[str, object] = {
            "capacity_rps_per_server": plan.capacity_rps_per_server,
            "base_rate_rps": plan.arrival.base_rate_rps,
        }
        weighted[setup.name] = {}
        for mode, record in runs.items():
            result = record.result
            overload = result.overload_report
            faultrep = result.fault_report
            pre = overload.goodput.window_mean_rate_per_s(
                warmup_ms, surge_start_ms
            )
            post = overload.goodput.window_mean_rate_per_s(
                surge_end_ms + 2000.0, end_ms
            )
            # Normalize by the offered load in each window so Poisson
            # noise in the arrival stream doesn't masquerade as a
            # goodput deficit.
            pre_offered = overload.offered.window_mean_rate_per_s(
                warmup_ms, surge_start_ms
            )
            post_offered = overload.offered.window_mean_rate_per_s(
                surge_end_ms + 2000.0, end_ms
            )
            pre_fraction = pre / pre_offered if pre_offered else 0.0
            post_fraction = post / post_offered if post_offered else 0.0
            recovered = (
                post_fraction / pre_fraction if pre_fraction else 0.0
            )
            recovery = _recovery_ms(
                overload.goodput, surge_end_ms, end_ms,
                recovery_fraction * pre,
            )
            breakdown = setup.design.tco_breakdown()
            model = TcoModel(power_model=PowerModel(rack=setup.design.rack()))
            adjusted = model.availability_adjusted(
                setup.design.bill(),
                repair_model,
                setup.components,
                shared=setup.shared,
                degraded=DEGRADED_CREDIT,
            )
            metric = adjusted.availability_weighted_perf_per_tco(
                result.goodput_rps / servers
            )
            weighted[setup.name][mode] = metric
            design_data[mode] = {
                "offered_rps": result.offered_rps,
                "throughput_rps": result.throughput_rps,
                "goodput_rps": result.goodput_rps,
                "p99_ms": result.p99_ms,
                "pre_surge_goodput_rps": pre,
                "post_surge_goodput_rps": post,
                "pre_surge_served_fraction": pre_fraction,
                "post_surge_served_fraction": post_fraction,
                "recovered_fraction": recovered,
                "recovery_ms": recovery,
                "timeouts": faultrep.timeouts,
                "retries": faultrep.retries,
                "gave_up": faultrep.gave_up,
                "total_shed": overload.total_shed,
                "shed_admission": overload.shed_admission,
                "shed_deadline": overload.shed_deadline,
                "rejected_queue_full": overload.rejected_queue_full,
                "rate_limited": overload.rate_limited,
                "breaker_opens": overload.breaker_opens,
                "breaker_rejections": overload.breaker_rejections,
                "retries_denied": overload.retries_denied,
                "brownout_requests": overload.brownout_requests,
                "tco_usd": breakdown.total_usd,
                "adjusted_tco_usd": adjusted.total_usd,
                "weighted_perf_per_tco": metric,
            }
            surge_rows.append(
                (
                    setup.name,
                    mode,
                    f"{result.offered_rps:.0f}",
                    f"{result.goodput_rps:.0f}",
                    f"{result.p99_ms:.0f} ms",
                    f"{pre:.0f}",
                    f"{post:.0f}",
                    f"{recovered:.0%}",
                    "never" if recovery is None else f"{recovery / 1000.0:.1f} s",
                )
            )
            activity_rows.append(
                (
                    setup.name,
                    mode,
                    faultrep.timeouts,
                    faultrep.retries,
                    overload.retries_denied,
                    overload.total_shed,
                    overload.breaker_opens,
                    overload.brownout_requests,
                )
            )
        data[setup.name] = design_data

    base = weighted["srvr1"]["protected"]
    for setup_name, modes in weighted.items():
        for mode, metric in modes.items():
            rel = metric / base if base else 0.0
            data[setup_name][mode]["relative_weighted_perf_per_tco"] = rel
        cost_rows.append(
            (
                setup_name,
                f"{weighted[setup_name]['naive'] / base:.2f}"
                if base else "0.00",
                f"{weighted[setup_name]['protected'] / base:.2f}"
                if base else "0.00",
            )
        )

    data["surge"] = {
        "load_fraction": load_fraction,
        "surge_multiplier": surge_multiplier,
        "surge_start_ms": surge_start_ms,
        "surge_end_ms": surge_end_ms,
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "servers": servers,
        "seed": seed,
    }

    sections = {
        f"{surge_multiplier:.0f}x surge, goodput (r/s) and recovery": format_table(
            ["Design", "stack", "offered", "goodput", "p99",
             "pre-surge", "post-surge", "recovered", "recovery"],
            surge_rows,
        ),
        "protection activity": format_table(
            ["Design", "stack", "timeouts", "retries", "denied", "shed",
             "breaker opens", "brownout"],
            activity_rows,
        ),
        "goodput-weighted Perf/TCO-$ (vs srvr1 protected)": format_table(
            ["Design", "naive", "protected"],
            cost_rows,
        ),
        "conclusion": (
            "an unprotected retry stack turns a transient 5x surge into "
            "a *metastable* collapse: queues outgrow the client timeout, "
            "servers burn capacity on requests whose clients have already "
            "given up, and synchronized retries hold the cluster at "
            "saturation after the surge ends -- post-surge goodput stays "
            "far below the pre-surge baseline.  Bounded queues, deadline "
            "shedding, admission control, retry budgets, circuit "
            "breakers, and brownout cap the damage during the surge and "
            "restore the baseline within seconds, which is why the "
            "goodput-weighted Perf/TCO-$ the paper optimizes is "
            "meaningful only on top of an overload-protected serving "
            "stack."
        ),
    }
    return ExperimentResult(
        experiment_id="EXT-10",
        title="Metastable overload and admission control",
        paper_reference="section 2 (application-stack availability) under surge",
        sections=sections,
        data=data,
    )
