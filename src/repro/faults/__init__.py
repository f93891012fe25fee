"""Stochastic fault injection and failure-domain modelling.

The paper's long-term design N2 wins by *sharing* ensemble resources --
a remote memory blade, SAN'd laptop disks behind a flash cache,
aggregated cooling -- but sharing concentrates failure domains.  This
package supplies the fault model needed to check whether the
srvr1 -> N1 -> N2 progression preserves its Perf/TCO-$ advantage once
availability is priced in:

- :mod:`~repro.faults.model` -- per-component-class MTBF/MTTR
  characteristics (:class:`FaultSpec`, :class:`FaultProfile`) with
  commodity-hardware defaults and acceleration for simulated windows.
- :mod:`~repro.faults.injector` -- seeded, fully deterministic
  fault-event injection into the discrete-event simulator, plus
  :class:`FailureDomain` for correlated failures (one memory-blade or
  enclosure fault degrading every attached server at once).
- :mod:`~repro.faults.failslow` -- *gray* failures: drift processes
  that degrade individual servers' CPU/NIC/remote-memory/flash service
  times continuously (:class:`FailSlowPlan`), and the deterministic
  peer-comparison detector (:class:`PeerComparisonDetector`) that
  scores, ejects, probes, and re-admits them at the balancer level.
- :mod:`~repro.faults.recovery` -- redundancy configuration, the
  QoS-throttled rebuild orchestrator (rebuild streams contend with
  foreground traffic on the shared blade link), and scripted
  maintenance-drain plans (:class:`MaintenancePlan`).

Consumers: :class:`repro.cluster.balancer.ClusterSimulator` (health
checks, retries, hedging, degraded modes),
:mod:`repro.costmodel.availability` (repair/downtime pricing) and
:mod:`repro.experiments.availability` (the srvr1/N1/N2 rerun under
faults).
"""

from repro.faults.model import (
    ComponentType,
    DEFAULT_FAULT_PROFILE,
    DEPRECIATION_CYCLE_HOURS,
    FaultProfile,
    FaultSpec,
    STRESS_FAULT_PROFILE,
)
from repro.faults.injector import (
    FailureDomain,
    FaultComponent,
    FaultEvent,
    FaultInjector,
)
from repro.faults.failslow import (
    AdaptiveTimeoutPolicy,
    DetectionPolicy,
    DriftTable,
    FailSlowInjection,
    FailSlowPlan,
    FailSlowReport,
    HealthTransition,
    LinearDrift,
    PeerComparisonDetector,
    SawtoothDrift,
    ServerHealth,
    SlowResource,
    StepDrift,
    StutterDrift,
)
# Imported last: recovery pulls in repro.memsim (and, lazily, the
# cluster overload machinery), so it must not gate the lighter modules.
from repro.faults.recovery import (
    BladeFault,
    MaintenancePlan,
    MaintenanceWindow,
    RebuildPolicy,
    RebuildThrottle,
    RecoveryOrchestrator,
    RecoveryReport,
    RedundancyConfig,
)

__all__ = [
    "ComponentType",
    "DEFAULT_FAULT_PROFILE",
    "DEPRECIATION_CYCLE_HOURS",
    "FaultProfile",
    "FaultSpec",
    "STRESS_FAULT_PROFILE",
    "FailureDomain",
    "FaultComponent",
    "FaultEvent",
    "FaultInjector",
    "AdaptiveTimeoutPolicy",
    "DetectionPolicy",
    "DriftTable",
    "FailSlowInjection",
    "FailSlowPlan",
    "FailSlowReport",
    "HealthTransition",
    "LinearDrift",
    "PeerComparisonDetector",
    "SawtoothDrift",
    "ServerHealth",
    "SlowResource",
    "StepDrift",
    "StutterDrift",
    "BladeFault",
    "MaintenancePlan",
    "MaintenanceWindow",
    "RebuildPolicy",
    "RebuildThrottle",
    "RecoveryOrchestrator",
    "RecoveryReport",
    "RedundancyConfig",
]
