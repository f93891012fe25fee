"""Request-level discrete-event server simulator and analytic model.

This package replaces the paper's COTSon full-system simulation and
Perl client driver:

- :mod:`~repro.simulator.engine` -- event-driven simulation core, which
  the scalar cluster engine and the fault layer schedule on.
- :mod:`~repro.simulator.resources` -- multi-server FCFS resources
  (CPU cores, memory channels, disk, NIC) on that core.
- :mod:`~repro.simulator.server_sim` -- the single-server simulation:
  workload requests against platform resources, measuring throughput
  and tail latency, either closed loop (N clients with think time) or
  open loop (Poisson arrivals at a fixed rate, optionally into a
  bounded queue).
- :mod:`~repro.simulator.sweep` -- the adaptive client driver: finds the
  highest throughput that still meets the workload's QoS.
- :mod:`~repro.simulator.analytic` -- approximate mean-value analysis of
  the same closed queueing network, used for fast exploration and
  cross-validation of the DES.
- :mod:`~repro.simulator.performance` -- the top-level entry point that
  scores one (platform, workload) pair the way Figure 2(c) does.
"""

from repro.simulator.engine import Simulation
from repro.simulator.resources import Resource
from repro.simulator.server_sim import ServerSimulator, SimConfig, SimResult
from repro.simulator.telemetry import (
    AvailabilityTracker,
    EntityAvailability,
    LatencyHistogram,
    TimeSeries,
)
from repro.simulator.queueing import (
    mm1k_blocking_probability,
    mm1k_mean_number,
    mm1k_mean_wait,
)
from repro.simulator.sweep import QosSweep, SweepResult
from repro.simulator.analytic import AnalyticServerModel, mva_throughput
from repro.simulator.performance import (
    PerformanceResult,
    measure_performance,
    relative_performance_matrix,
)

__all__ = [
    "Simulation",
    "Resource",
    "ServerSimulator",
    "SimConfig",
    "SimResult",
    "AvailabilityTracker",
    "EntityAvailability",
    "LatencyHistogram",
    "TimeSeries",
    "mm1k_blocking_probability",
    "mm1k_mean_number",
    "mm1k_mean_wait",
    "QosSweep",
    "SweepResult",
    "AnalyticServerModel",
    "mva_throughput",
    "PerformanceResult",
    "measure_performance",
    "relative_performance_matrix",
]
