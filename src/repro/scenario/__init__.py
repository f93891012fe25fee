"""Declarative warehouse-scale scenarios (schema, builder, compiler).

A :class:`~repro.scenario.spec.Scenario` describes an experiment as
data -- topology (tiers of platform/design servers, remote-memory
blades, flash), workload (suite benchmark or inline request DAG),
traffic program (closed loop, open loop with surges, or a full diurnal
day across regions), and overlay blocks (faults, fail-slow, overload
protection, redundancy, tracing).  Build one fluently
(:class:`~repro.scenario.builder.ScenarioBuilder`), load one from YAML
or JSON (:mod:`repro.scenario.loader`), then compile and run it
(:func:`~repro.scenario.compiler.run_scenario`); the compiler lowers
the spec onto the cluster engine, one run per compiled plan.  The
``repro-scenario`` CLI wraps the same pipeline.
"""

from repro.scenario.builder import ScenarioBuilder
from repro.scenario.compiler import (
    CompiledScenario,
    RunPlan,
    RunRecord,
    ScenarioResult,
    compile_scenario,
    run_scenario,
)
from repro.scenario.errors import ScenarioValidationError, ValidationIssue
from repro.scenario.library import LIBRARY, library_scenario
from repro.scenario.loader import (
    from_yaml,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    to_yaml,
)
from repro.scenario.spec import (
    ClosedLoopSpec,
    DiurnalSpec,
    FailslowSpec,
    FaultsSpec,
    FlashSpec,
    OpenLoopSpec,
    OverlaySpec,
    OverloadSpec,
    RedundancySpec,
    RegionSpec,
    RemoteMemorySpec,
    RequestDagSpec,
    RetrySpec,
    Scenario,
    StepSpec,
    SurgeSpec,
    TierSpec,
    TopologySpec,
    TracingSpec,
    TrafficSpec,
    WorkloadSpec,
)

__all__ = [
    "Scenario",
    "ScenarioBuilder",
    "ScenarioValidationError",
    "ValidationIssue",
    "CompiledScenario",
    "RunPlan",
    "RunRecord",
    "ScenarioResult",
    "compile_scenario",
    "run_scenario",
    "LIBRARY",
    "library_scenario",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "from_yaml",
    "to_yaml",
    "TopologySpec",
    "TierSpec",
    "RemoteMemorySpec",
    "FlashSpec",
    "WorkloadSpec",
    "RequestDagSpec",
    "StepSpec",
    "TrafficSpec",
    "ClosedLoopSpec",
    "OpenLoopSpec",
    "SurgeSpec",
    "DiurnalSpec",
    "RegionSpec",
    "OverlaySpec",
    "RetrySpec",
    "FaultsSpec",
    "OverloadSpec",
    "FailslowSpec",
    "RedundancySpec",
    "TracingSpec",
]
