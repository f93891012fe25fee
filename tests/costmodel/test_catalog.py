"""Catalog validation against the paper's published totals."""

import pytest

from repro.costmodel.catalog import SERVER_BILLS, server_bill, system_names
from repro.costmodel.components import Component
from repro.costmodel.rack import STANDARD_RACK
from tests.costmodel import cost_of

#: Table 2 published totals: (watt, inf-$ including switch share).
PAPER_TABLE2 = {
    "srvr1": (340, 3294),
    "srvr2": (215, 1689),
    "desk": (135, 849),
    "mobl": (78, 989),
    "emb1": (52, 499),
    "emb2": (35, 379),
}


class TestCatalog:
    def test_all_six_systems_present(self):
        assert set(system_names()) == set(PAPER_TABLE2)
        assert set(SERVER_BILLS) == set(PAPER_TABLE2)

    @pytest.mark.parametrize("system", list(PAPER_TABLE2))
    def test_power_matches_table2(self, system):
        watt, _ = PAPER_TABLE2[system]
        assert server_bill(system).power_w == pytest.approx(watt, abs=0.01)

    @pytest.mark.parametrize("system", list(PAPER_TABLE2))
    def test_inf_cost_matches_table2(self, system):
        _, inf = PAPER_TABLE2[system]
        total = (
            server_bill(system).hardware_cost_usd
            + STANDARD_RACK.switch_cost_per_server_usd
        )
        assert total == pytest.approx(inf, abs=1.0)

    def test_srvr1_component_breakdown_exact(self):
        """Figure 1(a) publishes srvr1's full breakdown."""
        bill = server_bill("srvr1")
        assert cost_of(bill, Component.CPU) == 1700
        assert cost_of(bill, Component.MEMORY) == 350
        assert cost_of(bill, Component.DISK) == 275
        assert cost_of(bill, Component.BOARD) == 400
        assert cost_of(bill, Component.POWER_FANS) == 500
        assert bill.power_of(Component.CPU) == 210

    def test_srvr2_component_breakdown_exact(self):
        bill = server_bill("srvr2")
        assert cost_of(bill, Component.CPU) == 650
        assert bill.power_of(Component.CPU) == 105
        assert cost_of(bill, Component.DISK) == 120

    def test_nonserver_systems_share_desktop_disk(self):
        """Table 3(a): $120 / 10 W desktop disk on all non-srvr1 systems."""
        for system in ("srvr2", "desk", "mobl", "emb1", "emb2"):
            bill = server_bill(system)
            assert cost_of(bill, Component.DISK) == 120
            assert bill.power_of(Component.DISK) == 10

    def test_unknown_system_raises_with_known_names(self):
        with pytest.raises(KeyError, match="srvr1"):
            server_bill("bogus")

    def test_consumer_memory_cheaper_than_fbdimm(self):
        """Paper: consumer technologies like DDR2 reduce memory cost."""
        fbdimm = cost_of(server_bill("srvr2"), Component.MEMORY)
        for system in ("desk", "mobl", "emb1", "emb2"):
            assert cost_of(server_bill(system), Component.MEMORY) < fbdimm
