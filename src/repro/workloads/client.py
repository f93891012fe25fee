"""The client driver, as the paper describes it (section 2.1).

"The servers are exercised by a Perl-based client driver, which generates
and dispatches requests (with user-defined think time), and reports
transaction rate and QoS results.  The client driver can also adapt the
number of simultaneous clients according to recently observed QoS
results, to achieve the highest level of throughput without overloading
the servers."

:class:`ClientDriver` is that artifact as a public API: configure a
platform, a workload, and optionally a think time; ``run()`` executes the
adaptive search over the discrete-event simulator and returns a
:class:`ClientDriverReport` with the transaction rate, QoS outcome, and
the operating points the driver explored along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional

from repro.platforms.platform import Platform
from repro.workloads.base import Workload

if TYPE_CHECKING:  # the simulator imports this package: import it lazily
    from repro.simulator.server_sim import DiskModel, SimConfig


@dataclass(frozen=True)
class OperatingPoint:
    """One explored (population, throughput, tail latency) point."""

    clients: int
    transaction_rate_rps: float
    qos_percentile_ms: float
    qos_met: bool


@dataclass(frozen=True)
class ClientDriverReport:
    """What the paper's driver reports: transaction rate and QoS."""

    workload: str
    platform: str
    transaction_rate_rps: float
    clients: int
    qos_percentile_ms: float
    qos_met: bool
    explored: List[OperatingPoint]

    def describe(self) -> str:
        qos = "QoS met" if self.qos_met else "QoS VIOLATED (degraded mode)"
        return (
            f"{self.workload} on {self.platform}: "
            f"{self.transaction_rate_rps:.1f} transactions/s with "
            f"{self.clients} clients, p95 {self.qos_percentile_ms:.0f} ms "
            f"({qos}; {len(self.explored)} operating points explored)"
        )


class ClientDriver:
    """Adaptive closed-loop client driver over the server simulator."""

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        think_time_ms: Optional[float] = None,
        config: Optional[SimConfig] = None,
        disk_model: Optional[DiskModel] = None,
    ):
        """``config`` defaults to ``SimConfig()``."""
        from repro.simulator.server_sim import SimConfig

        if think_time_ms is not None:
            if think_time_ms < 0:
                raise ValueError("think time must be >= 0")
            profile = replace(workload.profile, think_time_ms=think_time_ms)
            workload = Workload(profile, draw=workload.fast_demand)
        self._platform = platform
        self._workload = workload
        self._config = config if config is not None else SimConfig()
        self._disk_model = disk_model

    def run(self) -> ClientDriverReport:
        """Find the peak-QoS operating point and report it."""
        from repro.simulator.sweep import QosSweep

        sweep = QosSweep(
            self._platform,
            self._workload,
            config=self._config,
            disk_model=self._disk_model,
        )
        result = sweep.find_peak()
        explored = [
            OperatingPoint(
                clients=population,
                transaction_rate_rps=sim.throughput_rps,
                qos_percentile_ms=sim.qos_percentile_ms,
                qos_met=sim.qos_met,
            )
            for population, sim in sorted(sweep.explored().items())
        ]
        return ClientDriverReport(
            workload=self._workload.name,
            platform=self._platform.name,
            transaction_rate_rps=result.throughput_rps,
            clients=result.population,
            qos_percentile_ms=result.best.qos_percentile_ms,
            qos_met=result.qos_met,
            explored=explored,
        )
