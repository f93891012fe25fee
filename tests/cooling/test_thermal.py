"""Tests of the first-order thermal models."""

import pytest

from repro.cooling.thermal import (
    AirflowPath,
    COPPER_CONDUCTIVITY,
    HeatPipe,
    ThermalCircuit,
    fan_power_w,
    required_flow_m3_s,
)
from tests.cooling import max_heat_w


class TestAirflowPath:
    def test_pressure_drop_scales_with_length(self):
        short = AirflowPath(0.2, 0.01)
        long = AirflowPath(0.4, 0.01)
        flow = 0.01
        assert long.pressure_drop_pa(flow) == pytest.approx(
            2 * short.pressure_drop_pa(flow)
        )

    def test_parallel_paths_cut_velocity(self):
        single = AirflowPath(0.3, 0.01, parallel_paths=1)
        double = AirflowPath(0.3, 0.01, parallel_paths=2)
        assert double.velocity_m_s(0.01) == pytest.approx(
            single.velocity_m_s(0.01) / 2
        )
        # Quadratic in velocity: 4x lower pressure drop.
        assert double.pressure_drop_pa(0.01) == pytest.approx(
            single.pressure_drop_pa(0.01) / 4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            AirflowPath(0.0, 0.01)
        with pytest.raises(ValueError):
            AirflowPath(0.3, 0.01, parallel_paths=0)
        with pytest.raises(ValueError):
            AirflowPath(0.3, 0.01).velocity_m_s(-1.0)


class TestFanPower:
    def test_more_heat_needs_more_fan_power(self):
        path = AirflowPath(0.5, 0.01)
        assert fan_power_w(path, 150, 12) > fan_power_w(path, 75, 12)

    def test_larger_temperature_budget_saves_power(self):
        path = AirflowPath(0.5, 0.01)
        assert fan_power_w(path, 75, 20) < fan_power_w(path, 75, 10)

    def test_required_flow_formula(self):
        # Q = P / (rho * cp * dT)
        assert required_flow_m3_s(1186.0 * 1005.0 * 0.01, 1.0) == pytest.approx(
            10.0, rel=0.01
        )

    def test_validation(self):
        path = AirflowPath(0.5, 0.01)
        with pytest.raises(ValueError):
            fan_power_w(path, 75, 12, fan_efficiency=0.0)
        with pytest.raises(ValueError):
            required_flow_m3_s(-1.0, 10.0)
        with pytest.raises(ValueError):
            required_flow_m3_s(10.0, 0.0)


class TestHeatPipe:
    def test_paper_claim_3x_copper(self):
        pipe = HeatPipe(length_m=0.1, cross_section_m2=1e-4)
        assert pipe.conductivity_w_mk == pytest.approx(3 * COPPER_CONDUCTIVITY)

    def test_resistance_formula(self):
        pipe = HeatPipe(length_m=0.12, cross_section_m2=4e-4)
        assert pipe.conduction_resistance_k_w == pytest.approx(
            0.12 / (1200.0 * 4e-4)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatPipe(length_m=0.0, cross_section_m2=1e-4)


class TestThermalCircuit:
    def test_series_resistance(self):
        circuit = ThermalCircuit(conduction_k_w=0.2, convection_k_w=0.3)
        assert circuit.total_k_w == pytest.approx(0.5)
        assert max_heat_w(circuit, 25.0) == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalCircuit(conduction_k_w=-0.1, convection_k_w=0.3)
        with pytest.raises(ValueError):
            max_heat_w(ThermalCircuit(0.1, 0.1), 0.0)
