"""Write, serialize, and run a scenario as its frozen specs.

A scenario is *data*: frozen spec dataclasses (topology, workload,
traffic program, overlays) that ``Scenario.check()`` validates, that
round-trip through YAML, and that the compiler lowers onto the cluster
engine, one run per compiled plan.

This example declares a two-step request DAG (a lookup fanning into a
render step) served by a small N1 tier, drives it with an open-loop
surge under the overload-protection stack, prints the compiled plan,
runs it, and shows the YAML the spec serializes to.

Run:  python examples/dag_scenario.py
"""

from repro.scenario import (
    OpenLoopSpec,
    OverlaySpec,
    OverloadSpec,
    RequestDagSpec,
    RetrySpec,
    Scenario,
    StepSpec,
    SurgeSpec,
    TierSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    compile_scenario,
    scenario_to_dict,
)

WARMUP_MS = 1000.0
MEASURE_MS = 6000.0


def build_scenario():
    return Scenario(
        name="dag-surge-demo",
        description="two-step request DAG under a 4x surge, protected",
        seed=5,
        topology=TopologySpec(
            tiers=(TierSpec("web", design="N1", servers=4),)),
        workload=WorkloadSpec(dag=RequestDagSpec(
            "lookup-render",
            qos_limit_ms=400.0,
            steps=(
                StepSpec("lookup", cpu_ms_ref=1.5, mem_ms_ref=0.4,
                         net_bytes=2_000),
                StepSpec("render", cpu_ms_ref=2.5, mem_ms_ref=0.8,
                         net_bytes=12_000, after=("lookup",)),
            ),
        )),
        traffic=TrafficSpec(open_loop=OpenLoopSpec(
            utilization=0.6, warmup_ms=WARMUP_MS, measure_ms=MEASURE_MS,
            surge=SurgeSpec(multiplier=4.0, start_ms=2000.0, end_ms=3500.0),
        )),
        overlays=(
            OverlaySpec("protected", retry=RetrySpec(jitter=True),
                        overload=OverloadSpec(queue_cap="auto")),
        ),
    ).check()


def main() -> None:
    scenario = build_scenario()

    compiled = compile_scenario(scenario)
    print(compiled.describe())
    print()

    result = compiled.execute()
    print(result.render())
    print()

    import json

    print("serialized spec (YAML-equivalent dict):")
    print(json.dumps(scenario_to_dict(scenario), indent=2))


if __name__ == "__main__":
    main()
