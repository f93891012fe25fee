"""Tests of the activity-factor power model."""

import pytest

from repro.costmodel.catalog import server_bill
from repro.costmodel.components import Component
from repro.costmodel.power import DEFAULT_ACTIVITY_FACTOR, PowerModel


class TestPowerModel:
    def test_default_activity_factor_is_papers(self):
        assert DEFAULT_ACTIVITY_FACTOR == 0.75

    def test_server_consumed_includes_switch_share(self):
        model = PowerModel()
        bill = server_bill("srvr1")
        with_switch = model.server_consumed_w(bill)
        without = model.server_consumed_w(bill, include_switch=False)
        assert with_switch - without == pytest.approx(0.75 * 1.0)  # 40 W / 40 servers

    def test_srvr1_consumed_power(self):
        # (340 + 1) W * 0.75
        assert PowerModel().server_consumed_w(server_bill("srvr1")) == pytest.approx(
            255.75
        )

    def test_component_power_scaled_by_activity(self):
        consumed = PowerModel().component_consumed_w(server_bill("srvr2"))
        assert consumed[Component.CPU] == pytest.approx(105 * 0.75)
        assert sum(consumed.values()) == pytest.approx(215 * 0.75)

    def test_activity_factor_bounds(self):
        with pytest.raises(ValueError):
            PowerModel(activity_factor=0.0)
        with pytest.raises(ValueError):
            PowerModel(activity_factor=1.5)
        PowerModel(activity_factor=1.0)  # upper bound allowed

    def test_rack_consumed_scales_with_servers(self):
        model = PowerModel()
        bill = server_bill("emb1")
        rack_w = model.rack_consumed_w(bill)
        assert rack_w == pytest.approx((52 * 40 + 40) * 0.75)

    def test_rack_power_paper_observation(self):
        """Section 3.2: srvr1 13.6 kW/rack (nameplate)."""
        model = PowerModel()
        nameplate = model.rack.rack_power_w(server_bill("srvr1").power_w)
        assert nameplate == pytest.approx(13_640.0)
