"""Tests of design composition (baselines, N1, N2)."""

import pytest

from repro.core.designs import baseline_design, n1_design, n2_design
from repro.costmodel.catalog import server_bill
from repro.costmodel.components import Component


class TestBaselineDesign:
    def test_uses_stock_bill_and_rack(self):
        design = baseline_design("srvr2")
        assert design.bill().hardware_cost_usd == server_bill("srvr2").hardware_cost_usd
        assert design.rack().servers_per_rack == 40
        assert design.memory_slowdown == 1.0
        assert design.disk_model_for("websearch") is None

    def test_tco_matches_catalog(self):
        design = baseline_design("srvr1")
        assert design.tco_breakdown().total_usd == pytest.approx(5758, abs=10)


class TestN1Design:
    def test_composition(self):
        n1 = n1_design()
        assert n1.platform_name == "mobl"
        assert n1.memory_scheme is None
        assert n1.disk_config is None
        assert n1.memory_slowdown == 1.0

    def test_dense_packaging(self):
        assert n1_design().rack().servers_per_rack == 320

    def test_fan_power_reduced_but_psu_kept(self):
        n1 = n1_design()
        base = server_bill("mobl")
        new = n1.bill().components[Component.POWER_FANS]
        old = base.components[Component.POWER_FANS]
        assert new.power_w < old.power_w
        # Only the fan half shrinks: floor at (1 - FAN_FRACTION).
        assert new.power_w > 0.5 * old.power_w * 0.99
        assert new.cost_usd < old.cost_usd

    def test_other_components_untouched(self):
        n1 = n1_design()
        base = server_bill("mobl")
        for component in (Component.CPU, Component.MEMORY, Component.DISK):
            assert n1.bill().components[component] == base.components[component]


class TestN2Design:
    def test_composition(self):
        n2 = n2_design()
        assert n2.platform_name == "emb1"
        assert n2.memory_scheme is not None
        assert n2.disk_config is not None
        assert n2.memory_slowdown == pytest.approx(1.02)

    def test_densest_packaging(self):
        assert n2_design().rack().servers_per_rack == 1250

    def test_memory_provisioning_applied(self):
        n2 = n2_design()
        base_memory = server_bill("emb1").components[Component.MEMORY]
        new_memory = n2.bill().components[Component.MEMORY]
        assert new_memory.cost_usd < base_memory.cost_usd
        assert new_memory.power_w < base_memory.power_w

    def test_flash_disk_config_applied(self):
        n2 = n2_design()
        disk = n2.bill().components[Component.DISK]
        assert disk.cost_usd == pytest.approx(80 + 14)
        assert disk.power_w == pytest.approx(2.5)
        spec = n2.disk_model_for("ytube")
        assert spec is not None
        assert hasattr(spec.build(), "cache")

    def test_n2_cheaper_and_cooler_than_emb1(self):
        n2 = n2_design()
        base = server_bill("emb1")
        assert n2.bill().hardware_cost_usd < base.hardware_cost_usd
        assert n2.bill().power_w < base.power_w

    def test_tco_far_below_srvr1(self):
        ratio = (
            baseline_design("srvr1").tco_breakdown().total_usd
            / n2_design().tco_breakdown().total_usd
        )
        assert ratio > 6.0


class TestMemorySlowdownFor:
    def test_default_matches_uniform_assumption(self):
        n2 = n2_design()
        for bench in ("websearch", "webmail", "not-a-trace"):
            assert n2.memory_slowdown_for(bench) == n2.memory_slowdown
        n1 = n1_design()
        assert n1.memory_slowdown_for("websearch") == 1.0
        assert baseline_design("srvr1").memory_slowdown_for("websearch") == 1.0

    def test_measured_mode_uses_trace_curve(self):
        from dataclasses import replace

        from repro.memsim.twolevel import measured_slowdown

        measured = replace(n2_design(), measured_memory=True)
        slowdown = measured.memory_slowdown_for("webmail")
        expected = 1.0 + measured_slowdown(
            "webmail", measured.memory_scheme.local_fraction
        )
        assert slowdown == expected
        assert slowdown >= 1.0
        # Benchmarks without a page trace keep the assumed uniform 2%.
        assert measured.memory_slowdown_for("not-a-trace") == pytest.approx(1.02)
