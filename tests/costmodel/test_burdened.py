"""Tests of the Patel-Shah burdened power-and-cooling model.

The key validation: with the paper's defaults the model reproduces
Figure 1(a)'s published burdened costs for srvr1 and srvr2.
"""

import pytest

from repro.costmodel.burdened import (
    BurdenedCostParameters,
    BurdenedPowerCoolingModel,
    DEFAULT_BURDEN_PARAMETERS,
    HOURS_PER_YEAR,
)
from repro.costmodel.catalog import server_bill
from repro.costmodel.power import PowerModel


class TestBurdenedCostParameters:
    def test_default_burden_factor(self):
        # 1 + K1 + L1*(1 + K2) = 1 + 1.33 + 0.8 * 1.667
        assert DEFAULT_BURDEN_PARAMETERS.burden_factor == pytest.approx(3.6636)

    def test_tariff_conversion(self):
        assert DEFAULT_BURDEN_PARAMETERS.tariff_usd_per_wh == pytest.approx(1e-4)

    def test_rejects_negative_factors(self):
        with pytest.raises(ValueError):
            BurdenedCostParameters(k1=-0.1)

    def test_rejects_nonpositive_tariff(self):
        with pytest.raises(ValueError):
            BurdenedCostParameters(tariff_usd_per_mwh=0.0)


class TestBurdenedPowerCoolingModel:
    def test_hours_over_three_years(self):
        assert BurdenedPowerCoolingModel().hours == pytest.approx(3 * HOURS_PER_YEAR)

    def test_cost_is_linear_in_power(self):
        model = BurdenedPowerCoolingModel()
        assert model.cost_usd(200.0) == pytest.approx(2 * model.cost_usd(100.0))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            BurdenedPowerCoolingModel().cost_usd(-1.0)

    def test_zero_years_rejected(self):
        with pytest.raises(ValueError):
            BurdenedPowerCoolingModel(years=0)


class TestPaperValidation:
    """Figure 1(a) published values: srvr1 $2,464 and srvr2 $1,561."""

    @pytest.mark.parametrize(
        "system,paper_pc_usd",
        [("srvr1", 2464.0), ("srvr2", 1561.0)],
    )
    def test_three_year_pc_matches_paper(self, system, paper_pc_usd):
        power_model = PowerModel()
        burdened = BurdenedPowerCoolingModel()
        consumed = power_model.server_consumed_w(server_bill(system))
        cost = burdened.cost_usd(consumed)
        # Within $5 of the paper's published (rounded) numbers.
        assert cost == pytest.approx(paper_pc_usd, abs=5.0)

    def test_tariff_range_scales_costs(self):
        low = BurdenedPowerCoolingModel(BurdenedCostParameters(tariff_usd_per_mwh=50))
        high = BurdenedPowerCoolingModel(BurdenedCostParameters(tariff_usd_per_mwh=170))
        assert high.cost_usd(100) == pytest.approx(low.cost_usd(100) * 3.4)
