"""Unit tests for component specs and server bills."""

import pytest

from repro.costmodel.components import Component, ComponentSpec, ServerBill
from tests.costmodel import cost_of


def _bill(**overrides):
    components = {
        Component.CPU: ComponentSpec(100.0, 50.0),
        Component.MEMORY: ComponentSpec(40.0, 10.0),
        Component.DISK: ComponentSpec(30.0, 8.0),
    }
    components.update(overrides)
    return ServerBill(name="test", components=components)


class TestComponentSpec:
    def test_holds_cost_and_power(self):
        spec = ComponentSpec(123.0, 45.0)
        assert spec.cost_usd == 123.0
        assert spec.power_w == 45.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            ComponentSpec(-1.0, 10.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            ComponentSpec(1.0, -10.0)


class TestServerBill:
    def test_totals_sum_components(self):
        bill = _bill()
        assert bill.hardware_cost_usd == pytest.approx(170.0)
        assert bill.power_w == pytest.approx(68.0)

    def test_cost_and_power_of_component(self):
        bill = _bill()
        assert cost_of(bill, Component.CPU) == 100.0
        assert bill.power_of(Component.MEMORY) == 10.0

    def test_missing_component_reads_zero(self):
        bill = _bill()
        assert cost_of(bill, Component.POWER_FANS) == 0.0
        assert bill.power_of(Component.POWER_FANS) == 0.0

    def test_empty_bill_rejected(self):
        with pytest.raises(ValueError):
            ServerBill(name="empty", components={})

    def test_items_follow_enum_order(self):
        bill = _bill()
        assert [c for c, _ in bill.items()] == [
            Component.CPU,
            Component.MEMORY,
            Component.DISK,
        ]

    def test_replace_overrides_single_component(self):
        bill = _bill().replace(disk=ComponentSpec(5.0, 1.0))
        assert cost_of(bill, Component.DISK) == 5.0
        assert cost_of(bill, Component.CPU) == 100.0  # untouched

    def test_replace_can_rename(self):
        assert _bill().replace(name="other").name == "other"

    def test_replace_rejects_unknown_component(self):
        with pytest.raises(ValueError):
            _bill().replace(gpu=ComponentSpec(1.0, 1.0))

    def test_replace_does_not_mutate_original(self):
        original = _bill()
        original.replace(disk=ComponentSpec(5.0, 1.0))
        assert cost_of(original, Component.DISK) == 30.0
