"""Tests of the real-estate cost extension."""

import pytest

from repro.costmodel.realestate import RealEstateModel


class TestRealEstateModel:
    def test_per_rack_cost(self):
        model = RealEstateModel(gross_sqft_per_rack=24.0,
                                cost_per_sqft_cycle_usd=300.0)
        assert model.cost_per_rack_usd == pytest.approx(7200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RealEstateModel(gross_sqft_per_rack=0.0)
        with pytest.raises(ValueError):
            RealEstateModel(cost_per_sqft_cycle_usd=-1.0)
