"""Tests of the enclosure designs against the paper's cooling claims."""

import pytest

from repro.cooling.enclosure import (
    AGGREGATED_MICROBLADE,
    CONVENTIONAL_ENCLOSURE,
    DUAL_ENTRY_ENCLOSURE,
)
from tests.cooling import max_heat_w


class TestPaperClaims:
    def test_densities_match_paper(self):
        """Paper: 40 conventional, 320 dual-entry, 1250 microblades."""
        assert CONVENTIONAL_ENCLOSURE.systems_per_rack == 40
        assert DUAL_ENTRY_ENCLOSURE.systems_per_rack == 320
        assert AGGREGATED_MICROBLADE.systems_per_rack == 1250

    def test_dual_entry_roughly_2x(self):
        """Paper: ~50% improvement in cooling efficiencies / 2x potential."""
        gain = DUAL_ENTRY_ENCLOSURE.cooling_efficiency_vs(CONVENTIONAL_ENCLOSURE)
        assert 1.7 < gain < 2.7

    def test_aggregated_roughly_4x(self):
        gain = AGGREGATED_MICROBLADE.cooling_efficiency_vs(CONVENTIONAL_ENCLOSURE)
        assert 3.4 < gain < 4.6

    def test_baseline_self_comparison_is_identity(self):
        assert CONVENTIONAL_ENCLOSURE.cooling_efficiency_vs(
            CONVENTIONAL_ENCLOSURE
        ) == pytest.approx(1.0)


class TestMechanisms:
    def test_dual_entry_gain_comes_from_shorter_parallel_airflow(self):
        assert (
            DUAL_ENTRY_ENCLOSURE.airflow.flow_length_m
            < CONVENTIONAL_ENCLOSURE.airflow.flow_length_m
        )
        assert DUAL_ENTRY_ENCLOSURE.airflow.parallel_paths > 1
        assert DUAL_ENTRY_ENCLOSURE.fan_power_per_server_w() < (
            CONVENTIONAL_ENCLOSURE.fan_power_per_server_w()
        )

    def test_microblade_gain_adds_heat_pipe_conduction(self):
        assert (
            AGGREGATED_MICROBLADE.conduction_k_w
            < CONVENTIONAL_ENCLOSURE.conduction_k_w / 2
        )
        assert (
            AGGREGATED_MICROBLADE.thermal_circuit().total_k_w
            < DUAL_ENTRY_ENCLOSURE.thermal_circuit().total_k_w
        )

    def test_fan_power_factor_is_reciprocal_efficiency(self):
        gain = DUAL_ENTRY_ENCLOSURE.cooling_efficiency_vs(CONVENTIONAL_ENCLOSURE)
        factor = DUAL_ENTRY_ENCLOSURE.fan_power_factor(CONVENTIONAL_ENCLOSURE)
        assert factor == pytest.approx(1.0 / gain)

    def test_more_heat_removable_within_same_budget(self):
        conventional = max_heat_w(CONVENTIONAL_ENCLOSURE.thermal_circuit(), 40.0)
        microblade = max_heat_w(AGGREGATED_MICROBLADE.thermal_circuit(), 40.0)
        assert microblade > 2.5 * conventional
