"""Property-based tests on cost-model invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.burdened import BurdenedCostParameters, BurdenedPowerCoolingModel
from repro.costmodel.components import Component, ComponentSpec, ServerBill
from repro.costmodel.power import PowerModel
from repro.costmodel.tco import TcoModel
from tests.costmodel import cost_of

_spec = st.builds(
    ComponentSpec,
    cost_usd=st.floats(min_value=0.0, max_value=10_000.0),
    power_w=st.floats(min_value=0.0, max_value=1_000.0),
)


def _scaled(bill, cost_factor=1.0, power_factor=1.0):
    """A copy of ``bill`` with every component's cost/power scaled uniformly."""
    return ServerBill(
        name=bill.name,
        components={
            component: ComponentSpec(
                spec.cost_usd * cost_factor, spec.power_w * power_factor
            )
            for component, spec in bill.components.items()
        },
        description=bill.description,
    )


_bill = st.builds(
    lambda cpu, mem, disk: ServerBill(
        name="prop",
        components={Component.CPU: cpu, Component.MEMORY: mem, Component.DISK: disk},
    ),
    cpu=_spec,
    mem=_spec,
    disk=_spec,
)


class TestTcoProperties:
    @given(bill=_bill)
    @settings(max_examples=80, deadline=None)
    def test_breakdown_sums_are_consistent(self, bill):
        breakdown = TcoModel().breakdown(bill)
        assert breakdown.total_usd == pytest.approx(
            breakdown.hardware_total_usd + breakdown.power_cooling_total_usd
        )
        assert breakdown.hardware_total_usd >= bill.hardware_cost_usd
        if breakdown.total_usd > 0:
            assert sum(breakdown.pie_slices().values()) == pytest.approx(1.0)

    @given(bill=_bill, factor=st.floats(min_value=1.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_tco_monotone_in_component_power(self, bill, factor):
        heavier = _scaled(bill, cost_factor=1.0, power_factor=factor)
        model = TcoModel()
        assert model.total_usd(heavier) >= model.total_usd(bill) - 1e-9

    @given(bill=_bill)
    @settings(max_examples=60, deadline=None)
    def test_pc_cost_linear_in_tariff(self, bill):
        cheap = TcoModel(
            burdened_model=BurdenedPowerCoolingModel(
                BurdenedCostParameters(tariff_usd_per_mwh=50.0)
            )
        )
        pricey = TcoModel(
            burdened_model=BurdenedPowerCoolingModel(
                BurdenedCostParameters(tariff_usd_per_mwh=150.0)
            )
        )
        assert pricey.breakdown(bill).power_cooling_total_usd == pytest.approx(
            3.0 * cheap.breakdown(bill).power_cooling_total_usd, rel=1e-9
        )

    @given(
        bill=_bill,
        low=st.floats(min_value=0.1, max_value=0.9),
        high=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_consumed_power_monotone_in_activity_factor(self, bill, low, high):
        if low > high:
            low, high = high, low
        p_low = PowerModel(activity_factor=low).server_consumed_w(bill)
        p_high = PowerModel(activity_factor=high).server_consumed_w(bill)
        assert p_low <= p_high + 1e-9

    @given(bill=_bill)
    @settings(max_examples=60, deadline=None)
    def test_replace_preserves_untouched_components(self, bill):
        new = bill.replace(cpu=ComponentSpec(1.0, 1.0))
        assert cost_of(new, Component.MEMORY) == cost_of(bill, Component.MEMORY)
        assert cost_of(new, Component.DISK) == cost_of(bill, Component.DISK)
        assert cost_of(new, Component.CPU) == 1.0
