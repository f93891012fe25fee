"""Cluster/ensemble-level models (paper section 4 extensions).

The paper's evaluation scores single servers and assumes cluster
performance is the aggregation of single-machine results, flagging three
open issues in section 4 that this package addresses:

- :mod:`~repro.cluster.scaleout` -- Amdahl's-law limits on scale-out:
  serial work, per-server networking overhead, and data-structure
  inflation bound how far a workload can be partitioned, biasing against
  very small platforms.
- :mod:`~repro.cluster.balancer` -- a multi-server cluster simulation
  (load balancer in front of N simulated servers) used to validate the
  aggregation assumption and to measure cluster-level tail latency;
  :mod:`~repro.cluster.engine` is the request-lifecycle engine it runs.
- :mod:`~repro.cluster.diurnal` -- time-of-day request distributions
  (the paper studies only sustained load) and the ensemble-level
  provisioning/energy questions they raise.
- :mod:`~repro.cluster.overload` -- overload protection (admission
  control, retry budgets, circuit breakers, brownout) and the surge
  schedules that exercise it in open-loop mode.
"""

from repro.cluster.scaleout import ScaleOutModel, amdahl_speedup
from repro.cluster.balancer import (
    ClusterSimulator,
    ClusterResult,
    Dispatch,
    FaultReport,
    RetryPolicy,
)
from repro.cluster.diurnal import DiurnalLoadModel, EnsembleEnergyModel
from repro.cluster.heterogeneous import FleetOptimizer, FleetPlan, ServiceAssignment
from repro.cluster.overload import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionVerdict,
    BreakerPolicy,
    BreakerState,
    BrownoutPolicy,
    CircuitBreaker,
    OverloadPolicy,
    OverloadReport,
    RetryBudget,
    RetryBudgetPolicy,
    SurgeSchedule,
    TokenBucket,
)

__all__ = [
    "ScaleOutModel",
    "amdahl_speedup",
    "ClusterSimulator",
    "ClusterResult",
    "Dispatch",
    "FaultReport",
    "RetryPolicy",
    "DiurnalLoadModel",
    "EnsembleEnergyModel",
    "FleetOptimizer",
    "FleetPlan",
    "ServiceAssignment",
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionVerdict",
    "BreakerPolicy",
    "BreakerState",
    "BrownoutPolicy",
    "CircuitBreaker",
    "OverloadPolicy",
    "OverloadReport",
    "RetryBudget",
    "RetryBudgetPolicy",
    "SurgeSchedule",
    "TokenBucket",
]
