"""Durability math: MTTDL, loss probability, durability-adjusted TCO."""

import math

import pytest

from repro.costmodel.availability import (
    AvailabilityAdjustedTco,
    DurabilityAdjustedTco,
    DurabilityModel,
    RepairCostModel,
)
from repro.costmodel.tco import TcoBreakdown
from repro.faults.model import ComponentType, FaultProfile, FaultSpec
from repro.memsim.redundancy import RedundancyPolicy

#: Easy arithmetic: 10,000 h MTBF, 10 h hardware swap.
BLADE_SPEC = FaultSpec(mtbf_hours=10_000.0, mttr_hours=10.0)

EMPTY_PROFILE = FaultProfile("nothing", {})


class TestGuardRegressions:
    """Edge cases the availability layer must treat as identities."""

    def test_empty_components_cost_nothing(self):
        model = RepairCostModel(EMPTY_PROFILE)
        assert model.repair_cost_usd([]) == 0.0
        assert model.effective_availability([]) == 1.0

    def test_zero_server_share_rejected_even_off_path(self):
        # A shared entry with a non-positive split is a configuration
        # error even when that component never appears in the path.
        model = RepairCostModel(EMPTY_PROFILE)
        with pytest.raises(ValueError, match="must be positive"):
            model.repair_cost_usd([], shared={ComponentType.MEMORY_BLADE: 0})
        with pytest.raises(ValueError, match="must be positive"):
            model.repair_cost_usd(
                [ComponentType.SERVER], shared={ComponentType.SERVER: -2}
            )

    def test_zero_mttr_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="MTTR must be positive"):
            FaultSpec(mtbf_hours=1000.0, mttr_hours=0.0)


class TestDurabilityModel:
    def test_unprotected_mttdl_is_mtbf_over_n(self):
        model = DurabilityModel(
            spec=BLADE_SPEC, group_width=4, fault_tolerance=0,
            capacity_overhead=1.0,
        )
        assert model.mttdl_hours == pytest.approx(10_000.0 / 4)

    def test_single_fault_tolerance_formula(self):
        model = DurabilityModel(
            spec=BLADE_SPEC, group_width=3, fault_tolerance=1,
            capacity_overhead=2.0, rebuild_hours=2.0,
        )
        repair = 10.0 + 2.0
        expected = 10_000.0**2 / (3 * 2 * repair)
        assert model.repair_window_hours == repair
        assert model.mttdl_hours == pytest.approx(expected)

    def test_slower_rebuild_costs_durability(self):
        fast = DurabilityModel(
            spec=BLADE_SPEC, group_width=3, fault_tolerance=1,
            capacity_overhead=2.0, rebuild_hours=0.5,
        )
        slow = DurabilityModel(
            spec=BLADE_SPEC, group_width=3, fault_tolerance=1,
            capacity_overhead=2.0, rebuild_hours=50.0,
        )
        assert slow.mttdl_hours < fast.mttdl_hours
        assert slow.data_loss_probability(26_280.0) > (
            fast.data_loss_probability(26_280.0)
        )

    def test_loss_probability_is_exponential_survival(self):
        model = DurabilityModel(
            spec=BLADE_SPEC, group_width=1, fault_tolerance=0,
            capacity_overhead=1.0,
        )
        cycle = 26_280.0
        expected = 1.0 - math.exp(-cycle / 10_000.0)
        assert model.data_loss_probability(cycle) == pytest.approx(expected)
        assert model.durability(cycle) == pytest.approx(1.0 - expected)

    def test_for_policy_replica_and_parity(self):
        replica = DurabilityModel.for_policy(
            BLADE_SPEC, RedundancyPolicy.replicated(2), blades=3
        )
        assert replica.group_width == 3
        assert replica.fault_tolerance == 1
        assert replica.capacity_overhead == 2.0

        parity = DurabilityModel.for_policy(
            BLADE_SPEC, RedundancyPolicy.parity(4)
        )
        assert parity.group_width == 5  # defaults to min_blades
        assert parity.fault_tolerance == 1
        assert parity.capacity_overhead == pytest.approx(1.25)

        bare = DurabilityModel.for_policy(BLADE_SPEC, None, blades=2)
        assert bare.group_width == 2
        assert bare.fault_tolerance == 0
        assert bare.redundancy_capex_usd(1000.0) == 0.0

    def test_protection_beats_unprotected_by_orders_of_magnitude(self):
        bare = DurabilityModel.for_policy(BLADE_SPEC, None)
        replica = DurabilityModel.for_policy(
            BLADE_SPEC, RedundancyPolicy.replicated(2), blades=3
        )
        assert replica.mttdl_hours > 100 * bare.mttdl_hours

    def test_validation(self):
        with pytest.raises(ValueError):
            DurabilityModel(
                spec=BLADE_SPEC, group_width=0, fault_tolerance=0,
                capacity_overhead=1.0,
            )
        with pytest.raises(ValueError):
            DurabilityModel(
                spec=BLADE_SPEC, group_width=2, fault_tolerance=2,
                capacity_overhead=1.0,
            )
        with pytest.raises(ValueError):
            DurabilityModel(
                spec=BLADE_SPEC, group_width=2, fault_tolerance=1,
                capacity_overhead=0.5,
            )
        with pytest.raises(ValueError):
            DurabilityModel(
                spec=BLADE_SPEC, group_width=2, fault_tolerance=1,
                capacity_overhead=2.0, rebuild_hours=-1.0,
            )


def _breakdown():
    return TcoBreakdown(
        system="toy",
        hardware_usd={"memory": 400.0, "cpu": 600.0},
        power_cooling_usd={"power": 200.0},
        server_power_w=100.0,
        consumed_power_w=80.0,
    )


class TestDurabilityAdjustedTco:
    def test_totals_stack_redundant_capacity_on_adjusted_tco(self):
        adjusted = AvailabilityAdjustedTco(
            _breakdown(), repair_usd=50.0, availability=0.99
        )
        model = DurabilityModel.for_policy(
            BLADE_SPEC, RedundancyPolicy.replicated(2), blades=3
        )
        tco = DurabilityAdjustedTco(
            adjusted=adjusted, durability_model=model,
            memory_capex_usd=400.0,
        )
        # 2-replica doubles the remote slice: +100% of its capex.
        assert tco.redundancy_capex_usd == pytest.approx(400.0)
        assert tco.total_usd == pytest.approx(1250.0 + 400.0)

    def test_metric_weighs_availability_and_durability(self):
        adjusted = AvailabilityAdjustedTco(
            _breakdown(), repair_usd=0.0, availability=0.9
        )
        model = DurabilityModel.for_policy(BLADE_SPEC, None)
        tco = DurabilityAdjustedTco(
            adjusted=adjusted, durability_model=model,
            memory_capex_usd=400.0,
        )
        cycle = 26_280.0
        expected = 100.0 * 0.9 * model.durability(cycle) / tco.total_usd
        assert tco.durability_weighted_perf_per_tco(
            100.0, cycle
        ) == pytest.approx(expected)

    def test_unprotected_pays_no_premium_but_eats_the_discount(self):
        adjusted = AvailabilityAdjustedTco(
            _breakdown(), repair_usd=0.0, availability=1.0
        )
        bare = DurabilityAdjustedTco(
            adjusted=adjusted,
            durability_model=DurabilityModel.for_policy(BLADE_SPEC, None),
            memory_capex_usd=400.0,
        )
        protected = DurabilityAdjustedTco(
            adjusted=adjusted,
            durability_model=DurabilityModel.for_policy(
                BLADE_SPEC, RedundancyPolicy.parity(4)
            ),
            memory_capex_usd=400.0,
        )
        assert bare.total_usd < protected.total_usd
        # Over a long cycle the bare arm's loss probability dominates
        # the modest parity premium: protection wins the metric.
        assert protected.durability_weighted_perf_per_tco(
            100.0, cycle_hours=50_000.0
        ) > bare.durability_weighted_perf_per_tco(
            100.0, cycle_hours=50_000.0
        )

    def test_negative_inputs_rejected(self):
        adjusted = AvailabilityAdjustedTco(
            _breakdown(), repair_usd=0.0, availability=1.0
        )
        model = DurabilityModel.for_policy(BLADE_SPEC, None)
        with pytest.raises(ValueError):
            DurabilityAdjustedTco(
                adjusted=adjusted, durability_model=model,
                memory_capex_usd=-1.0,
            )
        tco = DurabilityAdjustedTco(
            adjusted=adjusted, durability_model=model,
            memory_capex_usd=0.0,
        )
        with pytest.raises(ValueError):
            tco.durability_weighted_perf_per_tco(-5.0)
        with pytest.raises(ValueError):
            model.data_loss_probability(-1.0)
        with pytest.raises(ValueError):
            model.redundancy_capex_usd(-1.0)
