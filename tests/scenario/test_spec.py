"""Schema validation: precise paths, full aggregation, clear messages."""

import pytest

from repro.scenario import (
    ClosedLoopSpec,
    DiurnalSpec,
    FailslowSpec,
    FaultsSpec,
    OpenLoopSpec,
    OverlaySpec,
    RedundancySpec,
    RegionSpec,
    RemoteMemorySpec,
    RequestDagSpec,
    Scenario,
    ScenarioValidationError,
    StepSpec,
    SurgeSpec,
    TierSpec,
    TopologySpec,
    TracingSpec,
    TrafficSpec,
    WorkloadSpec,
    scenario_from_dict,
)


def _issues(scenario: Scenario) -> dict:
    """path -> message for every validation issue."""
    return {issue.path: issue.message for issue in scenario.validate()}


def _valid_scenario(**overrides) -> Scenario:
    base = dict(
        name="ok",
        topology=TopologySpec(tiers=(TierSpec(name="web", design="N1"),)),
        workload=WorkloadSpec(benchmark="websearch"),
        traffic=TrafficSpec(closed_loop=ClosedLoopSpec()),
    )
    base.update(overrides)
    return Scenario(**base)


class TestPathPrecision:
    def test_unknown_platform_names_the_tier_index(self):
        scenario = _valid_scenario(
            topology=TopologySpec(tiers=(
                TierSpec(name="a", design="N1"),
                TierSpec(name="b", design="N2"),
                TierSpec(name="c", platform="n3"),
            )),
        )
        issues = _issues(scenario)
        assert "topology.tiers[2].platform" in issues
        assert "unknown 'n3'" in issues["topology.tiers[2].platform"]

    def test_dag_cycle_and_unknown_dependency(self):
        dag = RequestDagSpec(
            name="d",
            steps=(
                StepSpec(name="a", cpu_ms_ref=1.0, after=("b",)),
                StepSpec(name="b", cpu_ms_ref=1.0, after=("a",)),
                StepSpec(name="c", cpu_ms_ref=1.0, after=("ghost",)),
            ),
        )
        scenario = _valid_scenario(workload=WorkloadSpec(dag=dag))
        issues = _issues(scenario)
        assert any("workload.dag.steps[2].after" in path for path in issues)
        assert any("cycle" in message for message in issues.values())

    def test_overlay_block_paths(self):
        scenario = _valid_scenario(overlays=(
            OverlaySpec(name="x", faults=FaultsSpec(profile="chaos")),
            OverlaySpec(name="y", tracing=TracingSpec(sample_rate=2.0)),
        ))
        issues = _issues(scenario)
        assert "overlays[0].faults.profile" in issues
        assert "overlays[1].tracing.sample_rate" in issues


class TestAggregation:
    def test_every_error_reported_at_once(self):
        scenario = Scenario(
            name="",
            topology=TopologySpec(tiers=(
                TierSpec(name="web", platform="n3", servers=-2),
            )),
            workload=WorkloadSpec(benchmark="nosuchbench"),
            traffic=TrafficSpec(open_loop=OpenLoopSpec(
                utilization=0.5,
                surge=SurgeSpec(start_ms=30_000.0, end_ms=40_000.0),
            )),
            overlays=(OverlaySpec(name="x", faults=FaultsSpec("chaos")),),
            seed="one",
        )
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario.check()
        paths = {issue.path for issue in excinfo.value.issues}
        assert {
            "name",
            "topology.tiers[0].platform",
            "topology.tiers[0].servers",
            "workload.benchmark",
            "traffic.open_loop.surge.end_ms",
            "overlays[0].faults.profile",
            "seed",
        } <= paths
        rendered = str(excinfo.value)
        assert "scenario failed validation" in rendered
        assert "topology.tiers[0].platform" in rendered

    def test_decode_issues_do_not_mask_semantic_issues(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario_from_dict({
                "name": "bad",
                "topology": {"tiers": [{"name": "web", "platform": "n3"}]},
                "workload": {"benchmark": "websearch"},
                "overlays": [{"name": "x", "bogus_key": 1}],
            })
        paths = {issue.path for issue in excinfo.value.issues}
        assert "overlays[0].bogus_key" in paths  # decode problem
        assert "topology.tiers[0].platform" in paths  # semantic problem

    @pytest.mark.parametrize("change, path, message", [
        ({"topology": {"tiers": ["web"]}}, "topology.tiers[0]",
         "expected a mapping for TierSpec, got str"),
        ({"topology": None}, "topology",
         "expected a mapping for TopologySpec, got NoneType"),
        ({"overlays": ["healthy"]}, "overlays[0]",
         "expected a mapping for OverlaySpec, got str"),
        ({"traffic": {"open_loop": {"utilization": 0.5, "regions": [1]}}},
         "traffic.open_loop.regions[0]",
         "expected a mapping for RegionSpec, got int"),
    ])
    def test_non_mapping_entries_are_issues(self, change, path, message):
        data = {
            "name": "bad",
            "topology": {"tiers": [{"name": "web", "design": "N1"}]},
            "workload": {"benchmark": "nosuchbench"},
            "traffic": {"closed_loop": {}},
        }
        data.update(change)
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario_from_dict(data)
        issues = {issue.path: issue.message
                  for issue in excinfo.value.issues}
        assert issues[path] == message
        # The parts that did decode are still validated.
        assert "workload.benchmark" in issues

    def test_per_enclosure_balancer_fields_are_rejected(self):
        # A tier is always one balancer: a spec asking for per-enclosure
        # balancing must fail at the field's path, not run as one tier.
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario_from_dict({
                "name": "cells",
                "topology": {"tiers": [{
                    "name": "web", "design": "N1", "servers": 8,
                    "enclosure_size": 4,
                    "balancer_scope": "enclosure", "cells": 2,
                }]},
                "workload": {"benchmark": "websearch"},
                "traffic": {"closed_loop": {}},
            })
        issues = {issue.path: issue.message
                  for issue in excinfo.value.issues}
        assert set(issues) == {
            "topology.tiers[0].balancer_scope",
            "topology.tiers[0].cells",
        }
        assert "unknown field for TierSpec" in issues[
            "topology.tiers[0].balancer_scope"]


class TestCrossValidation:
    def test_workload_requires_exactly_one_source(self):
        assert "workload" in _issues(_valid_scenario(
            workload=WorkloadSpec()))
        both = WorkloadSpec(
            benchmark="websearch",
            dag=RequestDagSpec(name="d", steps=(
                StepSpec(name="s", cpu_ms_ref=1.0),)),
        )
        assert any("workload" in p for p in _issues(
            _valid_scenario(workload=both)))

    def test_redundancy_needs_a_remote_memory_tier(self):
        scenario = _valid_scenario(overlays=(
            OverlaySpec(name="x", redundancy=RedundancySpec()),))
        issues = _issues(scenario)
        assert any("redundancy" in path for path in issues)

    def test_failslow_server_must_exist_in_every_tier(self):
        tiers = (TierSpec(name="big", design="N1", servers=8),
                 TierSpec(name="web", design="N1", servers=2))
        scenario = _valid_scenario(
            topology=TopologySpec(tiers=tiers),
            overlays=(OverlaySpec(name="slow",
                                  failslow=FailslowSpec(server=5)),))
        assert _issues(scenario) == {
            "overlays[0].failslow.server":
                "server index 5 is out of range for tier 'web' (2 servers)",
        }
        in_range = _valid_scenario(
            topology=TopologySpec(tiers=tiers),
            overlays=(OverlaySpec(name="slow",
                                  failslow=FailslowSpec(server=1)),))
        assert _issues(in_range) == {}

    def test_parity_needs_a_blade_per_shard_plus_one(self):
        def scenario(blades):
            tier = TierSpec(name="web", design="N2",
                            remote_memory=RemoteMemorySpec())
            redundancy = RedundancySpec(mode="parity", blades=blades)
            return _valid_scenario(
                topology=TopologySpec(tiers=(tier,)),
                overlays=(OverlaySpec(name="protected",
                                      redundancy=redundancy),))

        assert _issues(scenario(2)) == {
            "overlays[0].redundancy.blades":
                "parity mode with 4 data shards needs >= 5 blades, got 2",
        }
        assert _issues(scenario(5)) == {}

    def test_regions_require_diurnal(self):
        scenario = _valid_scenario(traffic=TrafficSpec(
            open_loop=OpenLoopSpec(
                utilization=0.5,
                regions=(RegionSpec(name="us"),),
            )))
        assert any("regions" in path for path in _issues(scenario))

    def test_flash_crowd_hour_bounds(self):
        scenario = _valid_scenario(traffic=TrafficSpec(
            open_loop=OpenLoopSpec(
                utilization=0.5,
                diurnal=DiurnalSpec(flash_crowd_hour=24),
            )))
        assert any("flash_crowd_hour" in path for path in _issues(scenario))

    def test_valid_scenario_has_no_issues(self):
        assert _issues(_valid_scenario()) == {}


class TestBuilderValidation:
    def test_build_raises_aggregated(self):
        scenario = Scenario(
            name="bad",
            topology=TopologySpec(tiers=(TierSpec("web", platform="n3"),)),
            workload=WorkloadSpec(benchmark="nosuchbench"),
        )
        with pytest.raises(ScenarioValidationError) as excinfo:
            scenario.check()
        assert len(excinfo.value.issues) >= 2
