"""Tests of rack-level configuration."""

import pytest

from repro.costmodel.rack import RackConfig, STANDARD_RACK


class TestRackConfig:
    def test_standard_rack_matches_paper(self):
        assert STANDARD_RACK.servers_per_rack == 40
        assert STANDARD_RACK.switch_rack_cost_usd == 2750.0
        assert STANDARD_RACK.switch_rack_power_w == 40.0

    def test_per_server_shares(self):
        assert STANDARD_RACK.switch_cost_per_server_usd == pytest.approx(68.75)
        assert STANDARD_RACK.switch_power_per_server_w == pytest.approx(1.0)

    def test_rack_power_sums_servers_and_switch(self):
        assert STANDARD_RACK.rack_power_w(100.0) == pytest.approx(4040.0)

    def test_rack_power_rejects_negative(self):
        with pytest.raises(ValueError):
            STANDARD_RACK.rack_power_w(-5.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            RackConfig(servers_per_rack=0)
        with pytest.raises(ValueError):
            RackConfig(switch_rack_cost_usd=-1)
