"""Tests of the TCO model and its Figure 1 validation."""

import pytest

from repro.costmodel.catalog import server_bill
from repro.costmodel.tco import CostCategory, TcoModel


@pytest.fixture(scope="module")
def model():
    return TcoModel()


class TestTcoBreakdown:
    def test_totals_are_consistent(self, model):
        b = model.breakdown(server_bill("srvr2"))
        assert b.total_usd == pytest.approx(
            b.hardware_total_usd + b.power_cooling_total_usd
        )

    def test_hardware_includes_rack_share(self, model):
        b = model.breakdown(server_bill("srvr2"))
        assert b.hardware_usd["rack+switch"] == pytest.approx(68.75)
        assert b.hardware_total_usd == pytest.approx(1620 + 68.75)

    def test_paper_totals(self, model):
        """Figure 1(a): srvr1 total $5,758, srvr2 total $3,249."""
        srvr1 = model.breakdown(server_bill("srvr1"))
        srvr2 = model.breakdown(server_bill("srvr2"))
        assert srvr1.total_usd == pytest.approx(5758, abs=10)
        assert srvr2.total_usd == pytest.approx(3249, abs=10)

    def test_pie_slices_sum_to_one(self, model):
        slices = model.breakdown(server_bill("srvr2")).pie_slices()
        assert sum(slices.values()) == pytest.approx(1.0)

    def test_paper_pie_landmarks(self, model):
        """Figure 1(b): CPU HW ~20%, CPU P&C ~22% are the largest slices."""
        b = model.breakdown(server_bill("srvr2"))
        cpu_hw = b.pie_slices()[("cpu", CostCategory.HARDWARE)]
        cpu_pc = b.pie_slices()[("cpu", CostCategory.POWER_COOLING)]
        assert cpu_hw == pytest.approx(0.20, abs=0.02)
        assert cpu_pc == pytest.approx(0.22, abs=0.02)
        others = [
            v
            for (label, _), v in b.pie_slices().items()
            if label != "cpu"
        ]
        assert max(others) < max(cpu_hw, cpu_pc)

    def test_pc_comparable_to_hardware(self, model):
        """Paper: 'power and cooling costs are comparable to hardware costs'."""
        b = model.breakdown(server_bill("srvr2"))
        ratio = b.power_cooling_total_usd / b.hardware_total_usd
        assert 0.5 < ratio < 1.5


class TestTcoModelConvenience:
    def test_convenience_accessors_agree_with_breakdown(self, model):
        bill = server_bill("desk")
        b = model.breakdown(bill)
        assert model.total_usd(bill) == pytest.approx(b.total_usd)

    def test_cheaper_systems_have_lower_tco(self, model):
        order = ["srvr1", "srvr2", "desk", "emb1", "emb2"]
        tcos = [model.total_usd(server_bill(n)) for n in order]
        assert tcos == sorted(tcos, reverse=True)
