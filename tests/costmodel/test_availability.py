"""Tests of repair-cost and availability-adjusted TCO accounting."""

import pytest

from repro.costmodel.availability import (
    AvailabilityAdjustedTco,
    DEFAULT_INCIDENT_COST_USD,
    RepairCostModel,
)
from repro.costmodel.catalog import server_bill
from repro.costmodel.tco import TcoModel
from repro.faults.model import (
    ComponentType,
    DEFAULT_FAULT_PROFILE,
    FaultProfile,
    FaultSpec,
)

#: Toy profile with easy arithmetic: 10 failures/cycle at 99% up, and
#: 1 failure/cycle at 90% up (cycle = 26,280 h).
TOY = FaultProfile(
    "toy",
    {
        ComponentType.SERVER: FaultSpec(mtbf_hours=2_628.0, mttr_hours=26.54),
        ComponentType.MEMORY_BLADE: FaultSpec(
            mtbf_hours=26_280.0, mttr_hours=2_920.0
        ),
    },
)


class TestRepairCostModel:
    def test_repair_cost_sums_incidents(self):
        model = RepairCostModel(
            TOY,
            incident_cost_usd={
                ComponentType.SERVER: 100.0,
                ComponentType.MEMORY_BLADE: 300.0,
            },
        )
        cost = model.repair_cost_usd(
            [ComponentType.SERVER, ComponentType.MEMORY_BLADE]
        )
        assert cost == pytest.approx(10 * 100.0 + 1 * 300.0)

    def test_shared_component_splits_its_bill(self):
        model = RepairCostModel(
            TOY, incident_cost_usd={ComponentType.MEMORY_BLADE: 300.0}
        )
        solo = model.repair_cost_usd([ComponentType.MEMORY_BLADE])
        shared = model.repair_cost_usd(
            [ComponentType.MEMORY_BLADE], shared={ComponentType.MEMORY_BLADE: 8}
        )
        assert shared == pytest.approx(solo / 8)

    def test_unlisted_component_is_free(self):
        model = RepairCostModel(TOY)
        assert model.repair_cost_usd([ComponentType.NIC]) == 0.0

    def test_share_validation(self):
        model = RepairCostModel(TOY)
        with pytest.raises(ValueError, match="share"):
            model.repair_cost_usd(
                [ComponentType.SERVER], shared={ComponentType.SERVER: 0}
            )
        with pytest.raises(ValueError, match="cycle"):
            RepairCostModel(TOY, cycle_hours=0.0)

    def test_effective_availability_series(self):
        model = RepairCostModel(TOY)
        avail = model.effective_availability(
            [ComponentType.SERVER, ComponentType.MEMORY_BLADE]
        )
        assert avail == pytest.approx(0.99 * 0.9, rel=1e-3)

    def test_degraded_component_earns_partial_credit(self):
        model = RepairCostModel(TOY)
        hard = model.effective_availability([ComponentType.MEMORY_BLADE])
        soft = model.effective_availability(
            [ComponentType.MEMORY_BLADE],
            degraded={ComponentType.MEMORY_BLADE: 0.5},
        )
        full = model.effective_availability(
            [ComponentType.MEMORY_BLADE],
            degraded={ComponentType.MEMORY_BLADE: 1.0},
        )
        assert hard < soft < full == 1.0
        assert soft == pytest.approx(0.9 + 0.1 * 0.5, rel=1e-3)

    def test_degraded_credit_validation(self):
        model = RepairCostModel(TOY)
        with pytest.raises(ValueError, match="degraded"):
            model.effective_availability(
                [ComponentType.MEMORY_BLADE],
                degraded={ComponentType.MEMORY_BLADE: 1.5},
            )

    def test_default_incident_costs_cover_every_component(self):
        for ctype in ComponentType:
            assert DEFAULT_INCIDENT_COST_USD[ctype] > 0


class TestAvailabilityAdjustedTco:
    def _adjusted(self):
        breakdown = TcoModel().breakdown(server_bill("emb1"))
        model = RepairCostModel(DEFAULT_FAULT_PROFILE)
        components = [
            ComponentType.SERVER,
            ComponentType.DISK,
            ComponentType.NIC,
            ComponentType.MEMORY_BLADE,
        ]
        adjusted = AvailabilityAdjustedTco(
            breakdown=breakdown,
            repair_usd=model.repair_cost_usd(
                components, {ComponentType.MEMORY_BLADE: 8}
            ),
            availability=model.effective_availability(
                components, {ComponentType.MEMORY_BLADE: 0.7}
            ),
        )
        return adjusted.availability_weighted_perf_per_tco(1.0), adjusted, breakdown

    def test_total_includes_repair(self):
        _, adjusted, breakdown = self._adjusted()
        assert adjusted.repair_usd > 0
        assert adjusted.total_usd == pytest.approx(
            breakdown.total_usd + adjusted.repair_usd
        )

    def test_weighted_metric_is_discounted(self):
        metric, adjusted, breakdown = self._adjusted()
        assert 0.0 < adjusted.availability < 1.0
        assert metric < 1.0 / breakdown.total_usd
        assert metric == pytest.approx(
            adjusted.availability / adjusted.total_usd
        )

    def test_tco_model_entry_point(self):
        model = TcoModel()
        adjusted = model.availability_adjusted(
            server_bill("srvr1"),
            RepairCostModel(DEFAULT_FAULT_PROFILE),
            [ComponentType.SERVER, ComponentType.DISK],
        )
        assert isinstance(adjusted, AvailabilityAdjustedTco)
        assert adjusted.total_usd > model.total_usd(server_bill("srvr1"))

    def test_validation(self):
        breakdown = TcoModel().breakdown(server_bill("srvr1"))
        with pytest.raises(ValueError):
            AvailabilityAdjustedTco(breakdown, repair_usd=-1.0, availability=1.0)
        with pytest.raises(ValueError):
            AvailabilityAdjustedTco(breakdown, repair_usd=0.0, availability=0.0)
        adjusted = AvailabilityAdjustedTco(
            breakdown, repair_usd=0.0, availability=1.0
        )
        with pytest.raises(ValueError):
            adjusted.availability_weighted_perf_per_tco(-1.0)
