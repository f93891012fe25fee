"""Burdened power-and-cooling cost: the Patel-Shah model.

The paper (section 2.2) uses the methodology of Patel et al. to convert
consumed power into a *burdened* cost that also covers the power-delivery
and cooling infrastructure::

    PowerCoolingCost = (1 + K1 + L1 * (1 + K2)) * U_grid * P_consumed * T

where

- ``K1``  amortized capital expenditure of the power-delivery
          infrastructure, as a multiple of the electricity cost,
- ``L1``  cooling load factor: watts of cooling power per watt of
          IT power,
- ``K2``  amortized capital expenditure of the cooling infrastructure,
          as a multiple of the cooling electricity cost,
- ``U_grid``  electricity tariff ($/Wh), and
- ``P_consumed * T``  the consumed energy over the depreciation period.

With the paper's defaults (K1 = 1.33, L1 = 0.8, K2 = 0.667, $100/MWh,
3-year cycle, activity factor 0.75 and per-server switch share) this
reproduces Figure 1(a)'s published burdened costs: srvr1 $2,464 and
srvr2 $1,561 (we compute $2,462 and $1,560; the residue is rounding in
the paper's table).

The paper notes the tariff can vary from $50/MWh to $170/MWh; the
sensitivity experiment sweeps that range.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Hours in the paper's three-year depreciation cycle.
HOURS_PER_YEAR = 8760.0
DEFAULT_DEPRECIATION_YEARS = 3.0


@dataclass(frozen=True)
class BurdenedCostParameters:
    """K1/L1/K2 burden factors and the electricity tariff."""

    k1: float = 1.33
    l1: float = 0.8
    k2: float = 0.667
    tariff_usd_per_mwh: float = 100.0

    def __post_init__(self) -> None:
        for name in ("k1", "l1", "k2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.tariff_usd_per_mwh <= 0:
            raise ValueError("tariff must be positive")

    @property
    def burden_factor(self) -> float:
        """Multiplier on raw electricity cost: ``1 + K1 + L1*(1 + K2)``."""
        return 1.0 + self.k1 + self.l1 * (1.0 + self.k2)

    @property
    def tariff_usd_per_wh(self) -> float:
        return self.tariff_usd_per_mwh / 1.0e6


#: Paper defaults: K1=1.33, L1=0.8, K2=0.667, $100/MWh.
DEFAULT_BURDEN_PARAMETERS = BurdenedCostParameters()


@dataclass(frozen=True)
class BurdenedPowerCoolingModel:
    """Computes burdened power-and-cooling dollars from consumed watts."""

    parameters: BurdenedCostParameters = DEFAULT_BURDEN_PARAMETERS
    years: float = DEFAULT_DEPRECIATION_YEARS

    def __post_init__(self) -> None:
        if self.years <= 0:
            raise ValueError("depreciation period must be positive")

    @property
    def hours(self) -> float:
        """Total powered-on hours over the depreciation period."""
        return self.years * HOURS_PER_YEAR

    def cost_usd(self, consumed_w: float) -> float:
        """Burdened P&C cost of a constant ``consumed_w`` draw over the cycle.

        This is the paper's "3-yr power & cooling" line in Figure 1(a).
        """
        if consumed_w < 0:
            raise ValueError("consumed power must be >= 0")
        energy_wh = consumed_w * self.hours
        electricity = energy_wh * self.parameters.tariff_usd_per_wh
        return electricity * self.parameters.burden_factor
