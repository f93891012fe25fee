"""Availability under faults: section 3.6's comparison with hardware failing.

The paper evaluates srvr1, N1, and N2 assuming every component is always
up, and argues (section 2) that warehouse deployments push
high-availability out of the hardware and "into the application stack".
This experiment prices that assumption and then tests the application
stack it implies:

- *cost layer*: using real-timescale MTBF/MTTR figures
  (:data:`repro.faults.DEFAULT_FAULT_PROFILE`) each design's serving
  path gets an expected repair bill and a series availability over the
  three-year cycle, giving an availability-weighted Perf/TCO-$ --
  ``perf x availability / (TCO + repair)`` -- relative to srvr1.
  Components with a graceful-degradation path (memory blade, flash
  cache, enclosure fan) earn partial credit instead of an outage.
- *behaviour layer*: each design's cluster is re-run under stochastic
  fault injection with the balancer's full degradation stack enabled
  (health checks, 500 ms timeout, 3 bounded retries with backoff,
  hedging at 250 ms) -- the ``ext8-availability`` library scenario.
  Real MTBFs are 10^4-10^6 hours while a simulated run spans about a
  minute, so injection uses :data:`repro.faults.STRESS_FAULT_PROFILE`,
  an accelerated profile (MTBFs of 40-480 *seconds*) that compresses
  three years of failure phenomenology into the window.  The
  interesting contrast is N2: its shared memory blade is a *correlated*
  failure domain -- one blade fault degrades every attached server to
  local-memory-only mode at once -- which shows up as a tail-latency
  spike that the retry/hedging machinery must keep from becoming QoS
  collapse.

Run on websearch (the heaviest remote-memory traffic and the tightest
QoS bound in the suite, 500 ms at the 95th percentile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.designs import baseline_design, n1_design, n2_design
from repro.costmodel.availability import RepairCostModel
from repro.costmodel.tco import TcoModel
from repro.costmodel.power import PowerModel
from repro.experiments.reporting import (
    ExperimentResult,
    dollars,
    format_table,
    percent,
)
from repro.faults.model import (
    ComponentType,
    DEFAULT_FAULT_PROFILE,
    STRESS_FAULT_PROFILE,
)

_WORKLOAD = "websearch"
_TRACE_LENGTH = 200_000

#: Relative performance retained while a gracefully-degrading component
#: is down (used for the cost layer's availability credit): a fan loss
#: thermally throttles CPUs by 1.5x; a blade loss drops to
#: local-memory-only paging; a flash loss falls back to the raw disk.
DEGRADED_CREDIT: Dict[ComponentType, float] = {
    ComponentType.ENCLOSURE_FAN: 1.0 / 1.5,
    ComponentType.MEMORY_BLADE: 0.5,
    ComponentType.FLASH_CACHE: 0.8,
}

#: Servers sharing one enclosure (N1/N2 packaging) or one memory blade.
_ENCLOSURE_SHARE = 8
_BLADE_SHARE = 8


@dataclass(frozen=True)
class _DesignSetup:
    """Everything needed to simulate and price one design under faults."""

    name: str
    design: object
    #: Serving-path component classes for repair pricing / availability.
    components: tuple
    #: Servers splitting each shared component's repair bill.
    shared: Dict[ComponentType, int]
    uses_remote_memory: bool = False
    uses_flash: bool = False


def _setups() -> list:
    base_path = (
        ComponentType.SERVER,
        ComponentType.DISK,
        ComponentType.NIC,
        ComponentType.ENCLOSURE_FAN,
        ComponentType.ENCLOSURE_PSU,
    )
    return [
        _DesignSetup(
            name="srvr1",
            design=baseline_design("srvr1"),
            components=base_path,
            shared={},
        ),
        _DesignSetup(
            name="N1",
            design=n1_design(),
            components=base_path,
            shared={
                ComponentType.ENCLOSURE_FAN: _ENCLOSURE_SHARE,
                ComponentType.ENCLOSURE_PSU: _ENCLOSURE_SHARE,
            },
        ),
        _DesignSetup(
            name="N2",
            design=n2_design(),
            components=base_path
            + (ComponentType.MEMORY_BLADE, ComponentType.FLASH_CACHE),
            shared={
                ComponentType.ENCLOSURE_FAN: _ENCLOSURE_SHARE,
                ComponentType.ENCLOSURE_PSU: _ENCLOSURE_SHARE,
                ComponentType.MEMORY_BLADE: _BLADE_SHARE,
            },
            uses_remote_memory=True,
            uses_flash=True,
        ),
    ]


def run(
    servers: int = 6,
    clients_per_server: int = 6,
    warmup: int = 200,
    measure: int = 1800,
    seed: int = 1,
    fault_seed: int = 7,
) -> ExperimentResult:
    """Re-run the srvr1/N1/N2 comparison with hardware failing."""
    from repro.scenario import run_scenario
    from repro.scenario.library import ext8_availability

    scenario = ext8_availability(
        servers=servers, clients_per_server=clients_per_server,
        warmup=warmup, measure=measure, seed=seed, fault_seed=fault_seed,
    )
    results = {record.run_id: record.result
               for record in run_scenario(scenario).runs}
    repair_model = RepairCostModel(DEFAULT_FAULT_PROFILE)
    data: Dict[str, Dict[str, object]] = {}

    cost_rows = []
    degraded_rows = []
    handling_rows = []
    weighted = {}
    for setup in _setups():
        healthy = results[f"{setup.name}/healthy"]
        faulted = results[f"{setup.name}/faulted"]
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
            healthy.per_server_rps
        )
        weighted[setup.name] = metric
        report = faulted.fault_report
        retention = (
            faulted.per_server_rps / healthy.per_server_rps
            if healthy.per_server_rps
            else 0.0
        )
        data[setup.name] = {
            "healthy_rps": healthy.per_server_rps,
            "faulted_rps": faulted.per_server_rps,
            "throughput_retention": retention,
            "healthy_p95_ms": healthy.qos_percentile_ms,
            "faulted_p95_ms": faulted.qos_percentile_ms,
            "qos_violation_rate": faulted.qos_violation_rate,
            "measured_availability": faulted.availability,
            "analytic_availability": adjusted.availability,
            "tco_usd": breakdown.total_usd,
            "repair_usd": adjusted.repair_usd,
            "adjusted_tco_usd": adjusted.total_usd,
            "weighted_perf_per_tco": metric,
            "injected_failures": dict(report.injected_failures),
            "timeouts": report.timeouts,
            "retries": report.retries,
            "hedges": report.hedges,
            "gave_up": report.gave_up,
            "lost_in_flight": report.lost_in_flight,
            "degraded_requests": report.degraded_requests,
            "cache_bypassed_requests": report.cache_bypassed_requests,
            "blade_downtime_ms": report.blade_downtime_ms,
        }
        cost_rows.append(
            (
                setup.name,
                f"{healthy.per_server_rps:.1f}",
                f"{adjusted.availability:.6f}",
                dollars(adjusted.repair_usd),
                dollars(adjusted.total_usd),
            )
        )
        degraded_rows.append(
            (
                setup.name,
                f"{healthy.qos_percentile_ms:.0f} ms",
                f"{faulted.qos_percentile_ms:.0f} ms",
                percent(faulted.qos_violation_rate),
                percent(retention),
                f"{faulted.availability:.3f}",
            )
        )
        handling_rows.append(
            (
                setup.name,
                sum(report.injected_failures.values()),
                report.timeouts,
                report.retries,
                report.hedges,
                report.gave_up,
                f"{report.blade_downtime_ms / 1000.0:.1f} s",
            )
        )

    base = weighted["srvr1"]
    for name, metric in weighted.items():
        data[name]["relative_weighted_perf_per_tco"] = metric / base
    for i, row in enumerate(cost_rows):
        name = row[0]
        cost_rows[i] = row + (
            percent(data[name]["relative_weighted_perf_per_tco"]),
        )

    _healthy, faulted_arm = scenario.overlays
    retry = faulted_arm.retry
    data["fault_profile"] = STRESS_FAULT_PROFILE.name
    data["retry_policy"] = {
        "timeout_ms": retry.timeout_ms,
        "max_retries": retry.max_retries,
        "backoff_base_ms": retry.backoff_base_ms,
        "hedge_after_ms": retry.hedge_after_ms,
    }

    sections = {
        "availability-weighted Perf/TCO-$ (3-year MTBFs, vs srvr1)": format_table(
            ["Design", "rps/server", "avail.", "repair", "TCO+repair",
             "weighted Perf/TCO-$"],
            cost_rows,
        ),
        "degraded operation (accelerated fault injection)": format_table(
            ["Design", "healthy p95", "faulted p95", "QoS viol.",
             "tput retained", "in-rotation"],
            degraded_rows,
        ),
        "fault handling": format_table(
            ["Design", "failures", "timeouts", "retries", "hedges",
             "gave up", "blade down"],
            handling_rows,
        ),
        "conclusion": (
            "repair costs and serving-path availability barely move the "
            "Perf/TCO-$ ranking -- N2's shared blade and flash add "
            "failure modes, but every one degrades instead of killing "
            "the path.  Under accelerated injection the correlated "
            "blade domain is visible as N2's tail-latency spike "
            "(every attached server drops to local-memory paging at "
            "once), yet timeouts, bounded retries, and hedging keep the "
            "QoS violation rate bounded and throughput within a few "
            "percent of healthy."
        ),
    }
    return ExperimentResult(
        experiment_id="EXT-8",
        title="Availability-weighted unified designs",
        paper_reference="sections 2 and 3.6 under faults",
        sections=sections,
        data=data,
    )
